package gossip

import (
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/simnet"
)

// §4.4 query servicing — the aggregation logic (freshest-version voting,
// unconfident flagging, lazy-pull triggering) lives in internal/engine; this
// file keeps the thin Peer entry points.

// Query metric names.
const (
	// MetricQueries counts query messages sent.
	MetricQueries = "gossip_queries"
	// MetricQueryResponses counts query responses sent.
	MetricQueryResponses = "gossip_query_responses"
)

// QueryResult is the requester-side aggregation of one query.
type QueryResult = engine.QueryResult

// Query sends the key to k known replicas and returns a query id to poll
// with QueryResult. k is capped by the view size; k ≤ 0 defaults to the
// configured PullAttempts (or 3).
func (p *Peer) Query(env *simnet.Env, key string, k int) int64 {
	p.bind(env)
	return p.eng.Query(key, k)
}

// QueryResult returns the current aggregation for a query id. The boolean
// reports whether the id is known.
func (p *Peer) QueryResult(qid int64) (QueryResult, bool) {
	return p.eng.QueryResult(qid)
}
