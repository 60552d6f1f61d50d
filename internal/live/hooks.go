package live

import (
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
)

// This file is the observability surface of the live runtime. A replica can
// be configured with a set of Hooks (structured protocol events: applies,
// acks, suspicions) and a Metrics sink (counters for every message class).
// Both are optional and add no overhead when unset; the public pushpull.Node
// wires them to its Watch streams and metrics registry.

// Source identifies how an update reached a replica.
type Source = engine.Source

// Update sources.
const (
	// SourceLocal marks updates created by this replica's own Publish or
	// Delete.
	SourceLocal = engine.SourceLocal
	// SourcePush marks updates received through the constrained-flooding
	// push phase.
	SourcePush = engine.SourcePush
	// SourcePull marks updates obtained by anti-entropy pull
	// reconciliation.
	SourcePull = engine.SourcePull
)

// Hooks observes protocol-level events. All callbacks are optional; set
// callbacks run synchronously inside engine calls, under the replica's engine
// lock, so they must be fast, must not block, and must not call back into the
// Replica. The lock order is the replica's engine lock, then any lock a hook
// takes, then the Metrics sink's: a hook's own locks must never be held
// while calling the Replica.
type Hooks struct {
	// OnApply fires after an update is offered to the local store, whether
	// created locally, pushed, or pulled. res classifies the outcome and
	// branches is the number of coexisting revisions of the key afterwards
	// (>1 signals concurrent versions).
	OnApply func(u store.Update, res store.ApplyResult, src Source, branches int)
	// OnAck fires when a peer acknowledges an update we pushed (§6).
	OnAck func(peer string)
	// OnSuspect fires when a peer is suspected offline because its ack
	// never arrived (§6).
	OnSuspect func(peer string)
}

// Metrics is the counter sink the replica reports into. The project's
// metrics.Registry satisfies it; nil disables instrumentation.
type Metrics interface {
	// Inc increments the named counter by one.
	Inc(name string)
	// Add increments the named counter by delta.
	Add(name string, delta float64)
}

// Counter names reported by an instrumented replica.
const (
	// MetricPushSent counts push envelopes sent (including forwards).
	MetricPushSent = "live.push.sent"
	// MetricPushReceived counts push envelopes received.
	MetricPushReceived = "live.push.received"
	// MetricPushDuplicate counts received pushes already known locally.
	MetricPushDuplicate = "live.push.duplicate"
	// MetricApplied counts updates that changed the local store.
	MetricApplied = "live.apply.applied"
	// MetricObsolete counts updates dominated by existing branches.
	MetricObsolete = "live.apply.obsolete"
	// MetricPullRequests counts pull requests sent.
	MetricPullRequests = "live.pull.requests"
	// MetricPullServed counts pull requests answered for peers.
	MetricPullServed = "live.pull.served"
	// MetricPullUpdates counts updates received in pull responses.
	MetricPullUpdates = "live.pull.updates"
	// MetricAckSent counts acknowledgements sent (§6).
	MetricAckSent = "live.ack.sent"
	// MetricAckReceived counts acknowledgements received (§6).
	MetricAckReceived = "live.ack.received"
	// MetricSuspects counts peers promoted to suspected-offline (§6).
	MetricSuspects = "live.suspect"
	// MetricQuerySent counts query envelopes sent (§4.4).
	MetricQuerySent = "live.query.sent"
	// MetricQueryServed counts queries answered for peers (§4.4).
	MetricQueryServed = "live.query.served"
	// MetricSnapshotServed counts snapshot catch-ups served — whole streams,
	// however many chunks each took — to peers whose pull gap was compacted
	// away or exceeded both the snapshot threshold and the live state.
	MetricSnapshotServed = "live.snapshot.served"
	// MetricSnapshotCatchups counts snapshot catch-ups completed: streams
	// received whole, whose frontier was adopted.
	MetricSnapshotCatchups = "live.snapshot.catchups"
	// MetricTombstonesGC counts tombstoned revisions collected by the
	// janitor after their retention expired.
	MetricTombstonesGC = "live.janitor.tombstones_gc"
	// MetricLogCompacted counts update-log entries dropped by frontier
	// compaction.
	MetricLogCompacted = "live.janitor.log_compacted"
	// MetricKeysExpired counts live revisions the janitor tombstoned because
	// their TTL lapsed.
	MetricKeysExpired = "live.janitor.keys_expired"
	// MetricSendCoalesced counts deposits absorbed by an already-pending
	// per-peer delta instead of growing it: superseded pushes, re-merged
	// pull requests/responses, duplicate acks. A high rate means slow links
	// are being shielded by coalescing rather than by queueing.
	MetricSendCoalesced = "live.send.coalesced"
	// MetricSendFailed counts outbound envelopes dropped undelivered —
	// transport errors after the redial retry, or non-mergeable pending
	// traffic evicted past its cap. The protocol self-heals via pull
	// anti-entropy; a sustained rate points at an unreachable peer.
	MetricSendFailed = "live.send.failed"
)

// CounterNames is the canonical list of every counter name an instrumented
// replica can report — exactly the "live." constants above, in declaration
// order. The /metrics exporter and the public pushpull.MetricNames are built
// from this slice, and TestReplicaCountersAreRegistered drives a replica
// through every protocol path asserting it never emits a name outside it, so
// the serving surface cannot silently drift from the protocol counters.
var CounterNames = []string{
	MetricPushSent,
	MetricPushReceived,
	MetricPushDuplicate,
	MetricApplied,
	MetricObsolete,
	MetricPullRequests,
	MetricPullServed,
	MetricPullUpdates,
	MetricAckSent,
	MetricAckReceived,
	MetricSuspects,
	MetricQuerySent,
	MetricQueryServed,
	MetricSnapshotServed,
	MetricSnapshotCatchups,
	MetricTombstonesGC,
	MetricLogCompacted,
	MetricKeysExpired,
	MetricSendCoalesced,
	MetricSendFailed,
}

// inc bumps a counter if a metrics sink is configured.
func (r *Replica) inc(name string) {
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Inc(name)
	}
}

// add bumps a counter by n if a metrics sink is configured.
func (r *Replica) add(name string, n int) {
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Add(name, float64(n))
	}
}

// fireApply reports one apply outcome to the metrics sink and the OnApply
// hook. branches must come from the apply itself (Backend.ApplyObserved), not
// a later BranchCount, so concurrent applies to the key cannot skew it.
// Called by the engine, with r.mu held.
func (r *Replica) fireApply(u store.Update, res store.ApplyResult, src Source, branches int) {
	if r.cfg.Metrics != nil {
		switch res {
		case store.Applied:
			r.inc(MetricApplied)
		case store.Obsolete:
			r.inc(MetricObsolete)
		}
		if src == SourcePull {
			r.inc(MetricPullUpdates)
		}
	}
	if r.cfg.Hooks.OnApply != nil {
		r.cfg.Hooks.OnApply(u, res, src, branches)
	}
}
