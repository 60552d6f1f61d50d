package pushpull

import (
	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// This file re-exports the layer types behind the Node API.

// Live runtime types.
type (
	// Transport moves protocol envelopes between replicas.
	Transport = live.Transport
	// Hub is an in-memory transport fabric for tests and examples.
	Hub = live.Hub
	// TCPTransport is the production transport.
	TCPTransport = live.TCPTransport
	// QueryOutcome is the result of Node.Query (§4.4): the freshest
	// revision among the consulted replicas.
	QueryOutcome = live.QueryOutcome
)

// Data model types.
type (
	// Update is one replicated mutation (put or tombstone delete).
	Update = store.Update
	// Revision is one coexisting version branch of an item.
	Revision = store.Revision
	// Store is a replica's local versioned store: the store.Backend
	// contract, which live nodes run on the lock-striped sharded store.
	Store = store.Backend
	// Clock is a vector clock summarising received updates.
	Clock = version.Clock
	// History is an item's version history.
	History = version.History
)

// Forwarding-probability schedules (the paper's PF(t)).
type (
	// PFFunc maps a push round to a forwarding probability.
	PFFunc = pf.Func
	// PFConstant is PF(t) = C.
	PFConstant = pf.Constant
	// PFGeometric is PF(t) = Base^t.
	PFGeometric = pf.Geometric
	// PFAffineGeometric is PF(t) = A·B^t + C (the paper's Fig. 5 schedule).
	PFAffineGeometric = pf.AffineGeometric
	// PFAdaptive is the self-tuning schedule driven by duplicate counts and
	// partial-list length (§6).
	PFAdaptive = pf.Adaptive
)

// Analytical model types.
type (
	// PushParams parameterises the push-phase recursion (§4.2).
	PushParams = analytic.PushParams
	// PushResult is the resulting trajectory.
	PushResult = analytic.PushResult
)

// NewHub returns an in-memory transport fabric; attach nodes to it with
// WithHub.
func NewHub() *Hub { return live.NewHub() }

// ListenTCP starts a TCP transport on addr ("host:0" picks a free port).
// Most callers want WithTCP instead; ListenTCP remains for wiring a
// transport explicitly via WithTransport.
func ListenTCP(addr string) (*TCPTransport, error) { return live.ListenTCP(addr) }

// NewAdaptivePF returns the §6 self-tuning forwarding probability with the
// given base.
func NewAdaptivePF(base float64) *PFAdaptive { return pf.NewAdaptive(base) }

// AnalyzePush evaluates the paper's push-phase recursion.
func AnalyzePush(p PushParams) (PushResult, error) { return analytic.Push(p) }

// PullSuccess returns the §4.3 pull success probability: the chance that a
// replica coming online obtains the update within `attempts` random pulls
// when fAware of the rOn online replicas (out of r) hold it.
func PullSuccess(rOn int, fAware float64, r, attempts int) float64 {
	return analytic.PullSuccess(rOn, fAware, r, attempts)
}
