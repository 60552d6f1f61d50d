package pushpull

import (
	"fmt"
	"time"

	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/wal"
)

// Metrics is a registry of named counters and series; pass one to Open with
// WithMetrics to receive the node's operational counters (see the
// pushpull.Metric* constants for the names reported).
type Metrics = metrics.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// Counter names reported by an instrumented Node, re-exported from the live
// runtime plus the node-level ones.
const (
	// MetricPushSent counts push envelopes sent (including forwards).
	MetricPushSent = live.MetricPushSent
	// MetricPushReceived counts push envelopes received.
	MetricPushReceived = live.MetricPushReceived
	// MetricPushDuplicate counts received pushes already known locally.
	MetricPushDuplicate = live.MetricPushDuplicate
	// MetricApplied counts updates that changed the local store.
	MetricApplied = live.MetricApplied
	// MetricObsolete counts updates dominated by existing revisions.
	MetricObsolete = live.MetricObsolete
	// MetricPullRequests counts pull requests sent.
	MetricPullRequests = live.MetricPullRequests
	// MetricPullServed counts pull requests answered for peers.
	MetricPullServed = live.MetricPullServed
	// MetricPullUpdates counts updates received in pull responses.
	MetricPullUpdates = live.MetricPullUpdates
	// MetricAckSent counts acknowledgements sent (§6).
	MetricAckSent = live.MetricAckSent
	// MetricAckReceived counts acknowledgements received (§6).
	MetricAckReceived = live.MetricAckReceived
	// MetricSuspects counts peers promoted to suspected-offline (§6).
	MetricSuspects = live.MetricSuspects
	// MetricQuerySent counts query envelopes sent (§4.4).
	MetricQuerySent = live.MetricQuerySent
	// MetricQueryServed counts queries answered for peers (§4.4).
	MetricQueryServed = live.MetricQueryServed
	// MetricWatchEvents counts events delivered to Watch subscribers.
	MetricWatchEvents = "node.watch.events"
	// MetricWatchDropped counts events dropped because a Watch subscriber's
	// buffer was full.
	MetricWatchDropped = "node.watch.dropped"
)

// MetricNames returns the canonical list of every counter name an
// instrumented Node can report: the live protocol counters (kept canonical
// by live.CounterNames and its registration test), the store apply-outcome
// counters, the write-ahead-log counters, and the node-level watch
// counters. The /metrics exporter in internal/serve iterates this list so
// the serving surface always exports exactly the counters the protocol
// emits.
func MetricNames() []string {
	names := make([]string, 0, len(live.CounterNames)+len(wal.CounterNames)+5)
	names = append(names, live.CounterNames...)
	names = append(names, wal.CounterNames...)
	return append(names,
		MetricStoreApplied,
		MetricStoreDuplicate,
		MetricStoreObsolete,
		MetricWatchEvents,
		MetricWatchDropped,
	)
}

// defaultWatchBuffer is the per-subscriber event buffer; see WithWatchBuffer.
const defaultWatchBuffer = 256

// nodeOptions collects everything Open needs to assemble a Node.
type nodeOptions struct {
	cfg           live.Config
	transports    int // how many transport options were supplied
	makeTransport func() (live.Transport, error)
	given         live.Transport // caller-supplied via WithTransport; owned by Open
	peers         []string
	metrics       *Metrics
	watchBuffer   int
	err           error // first option-time error, surfaced by Open
}

func defaultNodeOptions() *nodeOptions {
	return &nodeOptions{
		cfg:         live.DefaultReplicaConfig(),
		watchBuffer: defaultWatchBuffer,
	}
}

func (o *nodeOptions) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// Option configures a Node under construction; pass Options to Open.
type Option func(*nodeOptions)

// WithTCP listens on addr with the production TCP transport ("host:0" picks
// a free port). Exactly one of WithTCP, WithHub, or WithTransport must be
// given.
func WithTCP(addr string) Option {
	return func(o *nodeOptions) {
		o.transports++
		o.makeTransport = func() (live.Transport, error) { return live.ListenTCP(addr) }
	}
}

// WithHub attaches the node to an in-memory Hub under the given address —
// the transport of choice for tests and single-process examples. The node
// sends through the same per-peer coalescing senders as on TCP, so delivery
// is asynchronous: Publish returns before any peer has applied the update.
// Exactly one of WithTCP, WithHub, or WithTransport must be given.
func WithHub(hub *Hub, addr string) Option {
	return func(o *nodeOptions) {
		o.transports++
		if hub == nil {
			o.fail(fmt.Errorf("%w: WithHub(nil, %q)", ErrInvalidConfig, addr))
			return
		}
		o.makeTransport = func() (live.Transport, error) { return hub.Attach(addr) }
	}
}

// WithTransport runs the node on a caller-supplied Transport. Open takes
// ownership immediately: the transport is closed on Close, and also when
// Open fails for any reason. Exactly one of WithTCP, WithHub, or
// WithTransport must be given.
func WithTransport(tr Transport) Option {
	return func(o *nodeOptions) {
		o.transports++
		if tr == nil {
			o.fail(fmt.Errorf("%w: WithTransport(nil)", ErrInvalidConfig))
			return
		}
		o.given = tr
		o.makeTransport = func() (live.Transport, error) { return tr, nil }
	}
}

// WithFanout sets the number of peers each push targets (the paper's R·f_r).
func WithFanout(n int) Option {
	return func(o *nodeOptions) { o.cfg.Fanout = n }
}

// WithPF sets the forwarding-probability schedule constructor (the paper's
// PF(t)), called for each update published or first received here; one that
// returns a pf stateless schedule (such as PFGeometric) is called once and
// its schedule shared. nil means PF(t) = 1.
func WithPF(newPF func() PFFunc) Option {
	return func(o *nodeOptions) { o.cfg.NewPF = newPF }
}

// WithAcks toggles the §6 acknowledgement optimisation: receivers ack the
// first copy of each update; senders prefer acking peers and temporarily
// skip suspected-offline ones.
func WithAcks(enabled bool) Option {
	return func(o *nodeOptions) { o.cfg.Acks = enabled }
}

// WithPullInterval sets the period of background anti-entropy pulls; 0
// disables periodic pulling (the eager pull at startup still happens).
func WithPullInterval(d time.Duration) Option {
	return func(o *nodeOptions) { o.cfg.PullInterval = d }
}

// WithPullAttempts sets the number of peers contacted per pull batch.
func WithPullAttempts(n int) Option {
	return func(o *nodeOptions) { o.cfg.PullAttempts = n }
}

// WithListMax caps the number of addresses carried per push (the live
// analogue of the paper's L_thr·R); 0 means unlimited.
func WithListMax(n int) Option {
	return func(o *nodeOptions) {
		o.cfg.PartialList = true
		o.cfg.ListMax = n
	}
}

// WithSeed seeds the node's random source, making peer sampling and
// forwarding decisions reproducible. 0 (the default) draws a seed from
// crypto/rand.
func WithSeed(seed int64) Option {
	return func(o *nodeOptions) { o.cfg.Seed = seed }
}

// WithMetrics directs the node's operational counters into reg.
func WithMetrics(reg *Metrics) Option {
	return func(o *nodeOptions) {
		if reg == nil {
			o.fail(fmt.Errorf("%w: WithMetrics(nil)", ErrInvalidConfig))
			return
		}
		o.metrics = reg
	}
}

// WithPeers teaches the node the given replica addresses at startup.
func WithPeers(addrs ...string) Option {
	return func(o *nodeOptions) { o.peers = append(o.peers, addrs...) }
}

// WAL is a write-ahead log attachable to a Node with WithWAL. Open one with
// OpenWAL (or internal/wal.Open inside this module).
type WAL = wal.Log

// WALOptions configures OpenWAL: directory, fsync policy, segment size.
type WALOptions = wal.Options

// WALSyncPolicy selects when appended records are fsynced; see the
// WALSync* constants.
type WALSyncPolicy = wal.SyncPolicy

// The write-ahead-log fsync policies, re-exported for WALOptions.
const (
	// WALSyncAlways fsyncs (group-committed) before every append returns.
	WALSyncAlways = wal.SyncAlways
	// WALSyncInterval fsyncs on a timer, bounding the loss window.
	WALSyncInterval = wal.SyncInterval
	// WALSyncNever leaves flushing to the kernel: state survives process
	// kills but not power loss.
	WALSyncNever = wal.SyncNever
)

// OpenWAL opens (creating or recovering) a write-ahead log for WithWAL.
// Close it after the Node that uses it is closed.
func OpenWAL(o WALOptions) (*WAL, error) { return wal.Open(o) }

// WALRecoveryStats reports what crash recovery restored; see
// Node.WALRecovery.
type WALRecoveryStats = live.WALRecovery

// WithWAL makes the node's applied state crash-consistent: every accepted
// update is appended to l before the apply is acknowledged, Open replays
// the log's checkpoint and then its surviving records before the protocol
// starts, and the janitor checkpoints the log when it outgrows the
// WithWALCheckpoint threshold. The node does not take ownership of l —
// close it after the node. The WAL is the only way a node's state survives
// a restart: without it a node opens empty and catches up by pull.
func WithWAL(l *WAL) Option {
	return func(o *nodeOptions) {
		if l == nil {
			o.fail(fmt.Errorf("%w: WithWAL(nil)", ErrInvalidConfig))
			return
		}
		o.cfg.WAL = l
	}
}

// WithWALCheckpoint sets the resident WAL size (bytes) beyond which the
// janitor checkpoints — writes the store's log image as WAL records into the
// WAL directory and prunes the segments it covers. 0 (the default) selects
// live.DefaultWALCheckpointBytes.
func WithWALCheckpoint(bytes int64) Option {
	return func(o *nodeOptions) { o.cfg.WALCheckpointBytes = bytes }
}

// WithJanitorInterval sets the period of the background maintenance pass
// that expires TTL'd keys, collects tombstones past retention, and compacts
// the update log up to the stable frontier (the pointwise-minimum clock
// across recently pulling peers). 0 disables the janitor.
func WithJanitorInterval(d time.Duration) Option {
	return func(o *nodeOptions) { o.cfg.JanitorInterval = d }
}

// WithTombstoneRetention sets how long tombstones outlive their delete
// before the janitor collects them — long enough for every replica to have
// pulled the death certificate. 0 selects the store default.
func WithTombstoneRetention(d time.Duration) Option {
	return func(o *nodeOptions) { o.cfg.TombstoneRetention = d }
}

// WithKeyTTL expires live revisions older than d into tombstones on the
// janitor's schedule. The decision depends only on the replicated stamp and
// the shared policy, so replicas expire deterministically without
// coordination. 0 disables expiry.
func WithKeyTTL(d time.Duration) Option {
	return func(o *nodeOptions) { o.cfg.KeyTTL = d }
}

// WithSnapshotCatchUp answers a pull whose delta exceeds n updates with a
// snapshot — the node's live state, streamed in bounded chunks — instead of
// an entry-by-entry list, when the snapshot is the smaller of the two; 0
// disables the size trigger (compaction gaps still force snapshots).
func WithSnapshotCatchUp(n int) Option {
	return func(o *nodeOptions) { o.cfg.SnapshotCatchUp = n }
}

// WithWatchBuffer sets the per-subscriber event buffer for Watch streams
// (default 256). When a subscriber falls this far behind, further events are
// dropped for it and counted under MetricWatchDropped.
func WithWatchBuffer(n int) Option {
	return func(o *nodeOptions) {
		if n <= 0 {
			o.fail(fmt.Errorf("%w: watch buffer %d must be positive", ErrInvalidConfig, n))
			return
		}
		o.watchBuffer = n
	}
}
