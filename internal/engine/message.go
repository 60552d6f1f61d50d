package engine

import (
	"fmt"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// Kind discriminates protocol messages.
type Kind int

// Message kinds, mirroring the paper's protocol phases: push (§4.1–4.2),
// pull request/response (§4.3), acknowledgement (§6), and query (§4.4).
const (
	// KindPush carries an update push Push(U, V, R_f, t).
	KindPush Kind = iota + 1
	// KindPullReq asks for updates the sender is missing, summarised by its
	// vector clock.
	KindPullReq
	// KindPullResp ships the missing updates plus a membership sample.
	KindPullResp
	// KindAck acknowledges the first receipt of an update.
	KindAck
	// KindQuery asks a replica for its current revision of a key.
	KindQuery
	// KindQueryResp answers a query.
	KindQueryResp
	// KindSnapshot is one chunk of a snapshot catch-up stream: a pull request
	// whose gap is compacted away (or exceeds the snapshot threshold and the
	// responder's live state) is answered with the responder's live cut in
	// bounded chunks, the last of which carries the frontier to adopt.
	KindSnapshot
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindPullReq:
		return "pull-req"
	case KindPullResp:
		return "pull-resp"
	case KindAck:
		return "ack"
	case KindQuery:
		return "query"
	case KindQueryResp:
		return "query-resp"
	case KindSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is the engine's transport-independent protocol message. The
// simulator delivers it as is, charged the bytes the binary codec would
// frame it in; the live runtime converts it to and from wire.Envelope at the
// transport boundary. Only the fields relevant to the Kind are set.
type Message[ID comparable] struct {
	// Kind selects which fields are meaningful.
	Kind Kind
	// Update carries the data item and its version for KindPush.
	Update store.Update
	// RF is the partial flooding list for KindPush; nil when the partial
	// list optimisation is disabled.
	RF []ID
	// T is the push round counter for KindPush; the initiator sends T = 0.
	T int
	// Clock is the requester's vector clock for KindPullReq and for a
	// deferred pull answer (IsPullIntent) and, on the Last chunk of a
	// KindSnapshot stream, the responder's frontier.
	Clock version.Clock
	// Updates are the missing updates, or one chunk of them, for
	// KindPullResp and the records of one KindSnapshot chunk.
	Updates []store.Update
	// Peers is a membership sample piggybacked on KindPullResp and
	// KindSnapshot — the name-dropper effect applied to the pull phase.
	Peers []ID
	// Stream, Chunk and Last place a KindSnapshot chunk: the stream it
	// belongs to (unique per sender), its zero-based position, and whether
	// it ends the stream. See StreamSnapshot.
	Stream uint64
	Chunk  int
	Last   bool
	// UpdateRef identifies the acknowledged update for KindAck. The
	// comparable form keeps the ack path allocation-free; adapters render
	// the "origin/seq" string only at their wire boundary.
	UpdateRef store.Ref
	// QID correlates KindQuery/KindQueryResp pairs.
	QID int64
	// Key is the queried key for KindQuery/KindQueryResp.
	Key string
	// Found reports whether the responder holds a live revision
	// (KindQueryResp).
	Found bool
	// Value and Version carry the responder's winning revision
	// (KindQueryResp).
	Value   []byte
	Version version.History
	// Confident is false when the responder suspects it is stale (§6 lazy
	// pull).
	Confident bool
}

// IsPullIntent reports whether m is the unrendered pull answer an engine
// with Config.DeferPullRender emits: a KindPullResp carrying the requester's
// clock and no updates, which AnswerPull turns into the actual answer at
// transmission time.
func (m Message[ID]) IsPullIntent() bool {
	return m.Kind == KindPullResp && m.Clock != nil && m.Updates == nil
}

// Source identifies how an update reached a replica.
type Source int

// Update sources.
const (
	// SourceLocal marks updates created by this replica's own Publish or
	// Delete.
	SourceLocal Source = iota + 1
	// SourcePush marks updates received through the constrained-flooding
	// push phase.
	SourcePush
	// SourcePull marks updates obtained by anti-entropy pull
	// reconciliation.
	SourcePull
)

// String returns the source name.
func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourcePush:
		return "push"
	case SourcePull:
		return "pull"
	default:
		return "unknown"
	}
}
