// Package gossip implements the paper's primary contribution: the hybrid
// push/pull rumor-spreading protocol for update propagation among replicas
// with very low online probability.
//
// Push phase (§3): a peer that first receives Push(U, V, R_f, t) applies the
// update, selects a random subset R_p of its known replicas with
// |R_p| = R·f_r, and — with probability PF(t) — forwards
// Push(U, V, R_f ∪ R_p, t+1) to R_p \ R_f. The partial list R_f suppresses
// duplicates, spreads membership knowledge (name-dropper), and its length
// feeds the self-tuning of PF (§6).
//
// Pull phase (§3): a peer that comes online, has seen no updates for a
// while, or receives a pull request while unsure of its own freshness,
// contacts several known replicas and reconciles via version vectors
// (anti-entropy).
//
// Optimisations (§6): acknowledgement-based peer preference, suspect lists
// for peers that never ack, lazy pulling, and duplicate-count-driven
// adaptive forwarding probabilities. Every optimisation is independently
// switchable so the ablation benchmarks can quantify each one.
package gossip

import (
	"fmt"

	"github.com/p2pgossip/update/internal/pf"
)

// Config parameterises a gossip peer. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// R is the total number of replicas in the partition (the paper's R).
	R int
	// Fr is the fanout fraction f_r: each push targets ≈ R·Fr replicas.
	Fr float64
	// NewPF builds the forwarding-probability function for one update at
	// one peer. A factory (rather than a shared instance) lets adaptive
	// schedules keep per-peer, per-update state; the pf package's stateless
	// schedules are built once per peer and shared (engine.Config.NewPF).
	// Nil means PF(t) = 1.
	NewPF func() pf.Func
	// PartialList enables carrying the flooding list R_f on push messages.
	PartialList bool
	// ListThreshold is the normalised cap L_thr on the carried list (§4.2),
	// enforced by dropping random entries; 0 disables truncation.
	ListThreshold float64
	// PullAttempts is the number of known replicas contacted per pull
	// batch. Zero disables the pull phase entirely (push-only experiments).
	PullAttempts int
	// LazyPull makes a waking peer wait for gossip instead of pulling
	// eagerly (§6); it then answers queries only after it has synced.
	LazyPull bool
	// PullTimeout is the number of rounds without any received update after
	// which an online peer proactively pulls ("no_updates_since(t)"). Zero
	// disables timeout-driven pulls.
	PullTimeout int
	// Acks enables the acknowledgement optimisation of §6: a peer acks the
	// first replica it received an update from, ack senders are preferred
	// as future push targets, and peers that never ack are suspected
	// offline and skipped for SuspectTTL rounds.
	Acks bool
	// SuspectTTL is how many rounds a non-acking peer is skipped as a push
	// target when Acks is on. Zero defaults to 10.
	SuspectTTL int
	// PullEvery makes every peer pull each time the round number is a
	// multiple of it — the simulator's analogue of the live runtime's
	// periodic anti-entropy ticker. Zero disables periodic pulls.
	PullEvery int
	// CompactEvery is the janitor cadence in rounds: every multiple, each
	// peer expires TTL'd keys, collects tombstones past retention, and
	// compacts its update log up to the stable frontier. Zero disables the
	// janitor.
	CompactEvery int
	// SnapshotCatchUp is the delta-size threshold above which a pull request
	// is answered with the responder's live cut — when that is smaller —
	// instead of an entry-by-entry delta; 0 disables the size trigger
	// (compaction gaps still force snapshots).
	SnapshotCatchUp int
	// KeyTTL expires live revisions older than this many rounds (one round
	// is one simulated second), converting them to tombstones on the
	// janitor's schedule. Zero disables expiry.
	KeyTTL int
	// TombstoneRetention is how many rounds tombstones outlive their delete
	// before the janitor collects them. Zero selects the store default.
	TombstoneRetention int
	// FrontierTTL bounds how many rounds a peer's last pull clock
	// participates in the stable compaction frontier. Zero keeps clocks
	// forever (no expiry).
	FrontierTTL int
	// LinkBudget caps the messages a peer emits to any one destination per
	// round; traffic beyond the budget coalesces into a per-destination
	// pending delta (dedup by update ref, newest version wins, requester
	// clocks merged pointwise-minimum) drained in later rounds — the
	// simulator equivalent of the live runtime's coalescing senders, for
	// cross-validating their bounded-memory behavior in deterministic
	// scenarios. Zero disables the budget: every send goes out the round it
	// is made, exactly as before.
	LinkBudget int
}

// DefaultConfig returns the configuration used by the paper's headline
// experiments: fanout f_r over R replicas, decaying PF, partial lists on,
// eager pull with three attempts.
func DefaultConfig(r int) Config {
	return Config{
		R:            r,
		Fr:           0.01,
		NewPF:        func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList:  true,
		PullAttempts: 3,
		PullTimeout:  50,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.R <= 0:
		return fmt.Errorf("gossip: R = %d must be positive", c.R)
	case c.Fr < 0 || c.Fr > 1:
		return fmt.Errorf("gossip: f_r = %g out of [0,1]", c.Fr)
	case c.ListThreshold < 0 || c.ListThreshold > 1:
		return fmt.Errorf("gossip: L_thr = %g out of [0,1]", c.ListThreshold)
	case c.PullAttempts < 0:
		return fmt.Errorf("gossip: pull attempts = %d negative", c.PullAttempts)
	case c.PullTimeout < 0:
		return fmt.Errorf("gossip: pull timeout = %d negative", c.PullTimeout)
	case c.PullEvery < 0:
		return fmt.Errorf("gossip: pull every = %d negative", c.PullEvery)
	case c.CompactEvery < 0:
		return fmt.Errorf("gossip: compact every = %d negative", c.CompactEvery)
	case c.SnapshotCatchUp < 0:
		return fmt.Errorf("gossip: snapshot catch-up = %d negative", c.SnapshotCatchUp)
	case c.KeyTTL < 0:
		return fmt.Errorf("gossip: key ttl = %d negative", c.KeyTTL)
	case c.TombstoneRetention < 0:
		return fmt.Errorf("gossip: tombstone retention = %d negative", c.TombstoneRetention)
	case c.FrontierTTL < 0:
		return fmt.Errorf("gossip: frontier ttl = %d negative", c.FrontierTTL)
	case c.LinkBudget < 0:
		return fmt.Errorf("gossip: link budget = %d negative", c.LinkBudget)
	default:
		return nil
	}
}

// suspectTTL returns the effective suspect duration.
func (c Config) suspectTTL() int {
	if c.SuspectTTL <= 0 {
		return 10
	}
	return c.SuspectTTL
}

// Metric names emitted by gossip peers on top of the engine's counters.
const (
	// MetricPushes counts push messages sent.
	MetricPushes = "gossip_push_sent"
	// MetricPushBytes accumulates the binary-encoded bytes of push messages
	// sent — the §4.2 traffic metric the scenario byte-overhead invariant
	// checks.
	MetricPushBytes = "gossip_push_bytes"
	// MetricDuplicates counts duplicate pushes received.
	MetricDuplicates = "gossip_duplicates"
	// MetricPullRequests counts pull requests sent.
	MetricPullRequests = "gossip_pull_requests"
	// MetricPullResponses counts pull responses sent.
	MetricPullResponses = "gossip_pull_responses"
	// MetricPullUpdates counts updates shipped in pull responses.
	MetricPullUpdates = "gossip_pull_updates"
	// MetricAcks counts acknowledgement messages.
	MetricAcks = "gossip_acks"
	// MetricReplicasLearned counts replicas discovered via partial lists.
	MetricReplicasLearned = "gossip_replicas_learned"
	// MetricSnapshots counts snapshot catch-ups served — streams, however
	// many chunks each took — to peers whose pull gap was compacted away or
	// exceeded both the snapshot threshold and the live state.
	MetricSnapshots = "gossip_snapshots"
	// MetricSnapshotBytes accumulates the binary-encoded bytes of snapshot
	// chunks sent — the rejoin-cost metric the scenario rejoin-bytes
	// invariant checks.
	MetricSnapshotBytes = "gossip_snapshot_bytes"
	// MetricSnapshotCatchups counts snapshot catch-ups completed: streams
	// received whole, whose frontier was adopted.
	MetricSnapshotCatchups = "gossip_snapshot_catchups"
	// MetricTombstonesGC counts tombstoned revisions collected by the
	// janitor after their retention expired.
	MetricTombstonesGC = "gossip_tombstones_gc"
	// MetricLogCompacted counts update-log entries dropped by frontier
	// compaction.
	MetricLogCompacted = "gossip_log_compacted"
	// MetricKeysExpired counts live revisions the janitor tombstoned because
	// their TTL lapsed.
	MetricKeysExpired = "gossip_keys_expired"
)
