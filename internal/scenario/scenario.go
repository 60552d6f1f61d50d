// Package scenario declares named fault-injection scenarios for the update
// protocol and the machine-checkable invariants each must uphold.
//
// A scenario is a deterministic experiment: a population of gossip peers on
// the round-based simulator, an availability process, a fault plane (message
// loss, delay and reordering, scheduled partitions, crash/restart events),
// and a publish workload. After a faulted phase the network is given a
// stable settle phase, then five invariants are checked:
//
//   - eventual-delivery: every published update reached every final-online
//     peer (tombstones included — death certificates must propagate);
//   - convergence: final-online peers hold identical vector clocks and
//     identical live store state;
//   - no-duplicate-application: no peer applied any update more than once;
//   - bounded-push-overhead: push messages stay within a scenario-specific
//     factor of the paper's analytic push-phase cost;
//   - bounded-push-bytes: push traffic, accounted at the live runtime's
//     real binary-encoded sizes, stays within the same factor of the
//     analytic byte cost Σ M(t)·S_M(t).
//
// Runs are deterministic: the same scenario and seed produce byte-identical
// Result JSON. The catalog in catalog.go is executed by cmd/scenarios and by
// the tier-1 test suite, so a protocol regression that only shows under
// faults fails CI.
package scenario

import (
	"fmt"
	"math/rand"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/gossip"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/store"
)

// Publish is one scheduled workload write.
type Publish struct {
	// Round schedules the write.
	Round int
	// Peer is the publishing replica (forced online for the write; must not
	// be crashed at Round).
	Peer int
	// Key and Value are the written item. Value is ignored for deletes.
	Key, Value string
	// Delete publishes a tombstone instead.
	Delete bool
}

// Scenario is one named fault-injection experiment.
type Scenario struct {
	// Name identifies the scenario in results and CLI filters.
	Name string
	// Description is one line of intent, for -list and the docs.
	Description string
	// N is the population size.
	N int
	// InitialOnline is the number of peers online at round 0.
	InitialOnline int
	// FaultRounds is the length of the phase under churn and faults.
	FaultRounds int
	// SettleRounds is the stable tail (everyone online, faults only via
	// still-pending crash windows) in which anti-entropy must converge.
	SettleRounds int
	// Config is the protocol configuration shared by all peers.
	Config gossip.Config
	// NewChurn builds the availability process; nil means everyone stays
	// online. Stateful processes are rebuilt per run for isolation.
	NewChurn func(n int) churn.Process
	// NewFaults builds the fault plane; nil means a clean network. A plane
	// is bound to one engine, so it too is rebuilt per run.
	NewFaults func(n int) *simnet.FaultPlane
	// Workload is the publish schedule.
	Workload []Publish
	// OverheadFactor bounds push messages at OverheadFactor × the analytic
	// push-phase expectation per update.
	OverheadFactor float64
	// AnalyticSigma is the per-round stay-online probability fed to the
	// analytic model for the overhead bound (1 for fault-only scenarios).
	AnalyticSigma float64
	// LogBoundFactor, when positive, adds the bounded-resident-log
	// invariant: every final-online peer's resident log entries must stay
	// within LogBoundFactor × (distinct workload keys + publishes within the
	// trailing compaction window). It is the tripwire for unbounded history
	// growth; set it only with Config.CompactEvery > 0.
	LogBoundFactor float64
	// RejoinByteFactor, when positive, adds the bounded-rejoin-bytes
	// invariant: the total snapshot bytes shipped during the run must stay
	// within RejoinByteFactor × the wire size of one final live cut —
	// catch-up cost O(live state), not O(history).
	RejoinByteFactor float64
	// ExpectSnapshots, when positive, adds the snapshot-catch-up invariant:
	// exactly this many snapshot catch-ups must have been served.
	ExpectSnapshots int
	// SenderBoundFactor, when positive, adds the bounded-sender-pending
	// invariant: no peer's per-destination coalesced pending delta may ever
	// exceed SenderBoundFactor × (distinct workload keys + 2) items — the
	// sender memory stays O(live state), not O(traffic shipped through a
	// throttled link). Requires Config.LinkBudget > 0.
	SenderBoundFactor float64
}

// Validate reports whether the scenario is runnable.
func (s Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: unnamed")
	case s.N <= 0:
		return fmt.Errorf("scenario %s: population %d", s.Name, s.N)
	case s.InitialOnline < 0 || s.InitialOnline > s.N:
		return fmt.Errorf("scenario %s: initial online %d out of [0,%d]", s.Name, s.InitialOnline, s.N)
	case s.FaultRounds <= 0 || s.SettleRounds <= 0:
		return fmt.Errorf("scenario %s: phases %d+%d must be positive", s.Name, s.FaultRounds, s.SettleRounds)
	case s.OverheadFactor <= 0:
		return fmt.Errorf("scenario %s: overhead factor %g", s.Name, s.OverheadFactor)
	case s.AnalyticSigma <= 0 || s.AnalyticSigma > 1:
		return fmt.Errorf("scenario %s: analytic sigma %g out of (0,1]", s.Name, s.AnalyticSigma)
	case s.LogBoundFactor < 0:
		return fmt.Errorf("scenario %s: log bound factor %g negative", s.Name, s.LogBoundFactor)
	case s.LogBoundFactor > 0 && s.Config.CompactEvery <= 0:
		return fmt.Errorf("scenario %s: log bound factor without a janitor cadence", s.Name)
	case s.RejoinByteFactor < 0:
		return fmt.Errorf("scenario %s: rejoin byte factor %g negative", s.Name, s.RejoinByteFactor)
	case s.ExpectSnapshots < 0:
		return fmt.Errorf("scenario %s: expected snapshots %d negative", s.Name, s.ExpectSnapshots)
	case s.SenderBoundFactor < 0:
		return fmt.Errorf("scenario %s: sender bound factor %g negative", s.Name, s.SenderBoundFactor)
	case s.SenderBoundFactor > 0 && s.Config.LinkBudget <= 0:
		return fmt.Errorf("scenario %s: sender bound factor without a link budget", s.Name)
	}
	for i, p := range s.Workload {
		if p.Round < 0 || p.Round >= s.FaultRounds+s.SettleRounds {
			return fmt.Errorf("scenario %s: publish %d at round %d outside run", s.Name, i, p.Round)
		}
		if p.Peer < 0 || p.Peer >= s.N {
			return fmt.Errorf("scenario %s: publish %d at peer %d out of range", s.Name, i, p.Peer)
		}
	}
	return s.Config.Validate()
}

// InvariantResult is one checked invariant.
type InvariantResult struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

// Result is the machine-readable outcome of one scenario run. Same scenario
// and seed ⇒ byte-identical JSON (no timestamps, no map-order dependence).
type Result struct {
	Scenario        string   `json:"scenario"`
	Description     string   `json:"description"`
	Seed            int64    `json:"seed"`
	N               int      `json:"n"`
	Rounds          int      `json:"rounds"`
	Published       int      `json:"published"`
	Updates         []string `json:"updates"`
	FinalOnline     int      `json:"final_online"`
	Messages        int64    `json:"messages"`
	MessagesOffline int64    `json:"messages_offline"`
	MessagesDropped int64    `json:"messages_dropped"`
	Bytes           int64    `json:"bytes"`
	Pushes          int64    `json:"pushes"`
	PushBytes       int64    `json:"push_bytes"`
	Duplicates      int64    `json:"duplicates"`
	PullRequests    int64    `json:"pull_requests"`
	PullUpdates     int64    `json:"pull_updates"`
	Snapshots       int64    `json:"snapshots"`
	SnapshotBytes   int64    `json:"snapshot_bytes"`
	LogCompacted    int64    `json:"log_compacted"`
	// SenderPeakPending is the largest per-destination coalesced pending
	// delta any peer accumulated; only set (and serialised) when the
	// scenario runs with a link budget, so legacy result files are
	// byte-stable.
	SenderPeakPending int               `json:"sender_peak_pending,omitempty"`
	Invariants        []InvariantResult `json:"invariants"`
	Passed            bool              `json:"passed"`
}

// settleAfter wraps an availability process and forces every peer online from
// round After on — the stable tail in which anti-entropy must converge.
// Fault-plane crash windows still override it.
type settleAfter struct {
	base  churn.Process
	after int
	round int
}

var (
	_ churn.Process    = (*settleAfter)(nil)
	_ churn.RoundAware = (*settleAfter)(nil)
)

func (s *settleAfter) BeginRound(round int) {
	s.round = round
	if ra, ok := s.base.(churn.RoundAware); ok {
		ra.BeginRound(round)
	}
}

func (s *settleAfter) Next(peer int, current churn.State, rng *rand.Rand) churn.State {
	if s.round >= s.after {
		return churn.Online
	}
	return s.base.Next(peer, current, rng)
}

// LastEventRound implements churn.EventSource: the settle transition is
// itself a scheduled event, on top of any the base process carries.
func (s *settleAfter) LastEventRound() int {
	last := s.after
	if es, ok := s.base.(churn.EventSource); ok && es.LastEventRound() > last {
		last = es.LastEventRound()
	}
	return last
}

func (s *settleAfter) String() string {
	return fmt.Sprintf("settle-after(%d,%s)", s.after, s.base)
}

// applyKey identifies one (peer, update) application for duplicate checking.
type applyKey struct {
	peer int
	ref  store.Ref
}

// Run executes one scenario under one seed and returns its result. The error
// reports harness problems (invalid scenario, construction failures);
// invariant violations land in the Result instead.
func Run(sc Scenario, seed int64) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	net, err := gossip.BuildNetwork(sc.N, sc.Config, 0, seed)
	if err != nil {
		return Result{}, err
	}
	// Restarting peers re-learn a fixed seed list, as a real deployment
	// would from its config file.
	boot := []int{0, 1, 2}
	for _, p := range net.Peers {
		p.SetBootstrap(boot...)
	}

	// Count store-level applications for the no-duplicate invariant.
	applied := make(map[applyKey]int)
	for i, p := range net.Peers {
		peer := i
		p.Store().SetApplyHook(func(u store.Update, res store.ApplyResult, _ int) {
			if res == store.Applied {
				applied[applyKey{peer: peer, ref: u.Ref()}]++
			}
		})
	}

	base := churn.Process(churn.Static{})
	if sc.NewChurn != nil {
		base = sc.NewChurn(sc.N)
	}
	var plane *simnet.FaultPlane
	if sc.NewFaults != nil {
		plane = sc.NewFaults(sc.N)
	}
	reg := metrics.NewRegistry()
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: sc.InitialOnline,
		Churn:         &settleAfter{base: base, after: sc.FaultRounds},
		Seed:          seed,
		Faults:        plane,
		Metrics:       reg,
	})
	if err != nil {
		return Result{}, err
	}

	byRound := make(map[int][]Publish, len(sc.Workload))
	for _, p := range sc.Workload {
		byRound[p.Round] = append(byRound[p.Round], p)
	}
	var published []store.Update
	runWorkload := func() {
		for _, p := range byRound[en.Round()] {
			if en.Crashed(p.Peer) {
				// Writing at a dead process is a workload bug; catalog
				// scenarios avoid it, and skipping keeps the invariants
				// consistent if a custom one does not.
				continue
			}
			if !en.Population().Online(p.Peer) {
				// A user writing at this replica implies it is up.
				en.Population().SetOnline(p.Peer, true)
			}
			env := simnet.NewTestEnv(en, p.Peer)
			if p.Delete {
				published = append(published, net.Peers[p.Peer].PublishDelete(env, p.Key))
			} else {
				published = append(published, net.Peers[p.Peer].Publish(env, p.Key, []byte(p.Value)))
			}
		}
	}

	total := sc.FaultRounds + sc.SettleRounds
	en.Step() // round 0
	runWorkload()
	for en.Round() < total {
		en.Step()
		runWorkload()
	}

	res := Result{
		Scenario:        sc.Name,
		Description:     sc.Description,
		Seed:            seed,
		N:               sc.N,
		Rounds:          total,
		Published:       len(published),
		FinalOnline:     en.Population().OnlineCount(),
		Messages:        int64(reg.Counter(simnet.MetricMessages)),
		MessagesOffline: int64(reg.Counter(simnet.MetricMessagesOffline)),
		MessagesDropped: int64(reg.Counter(simnet.MetricMessagesDropped)),
		Bytes:           int64(reg.Counter(simnet.MetricBytes)),
		Pushes:          int64(reg.Counter(gossip.MetricPushes)),
		PushBytes:       int64(reg.Counter(gossip.MetricPushBytes)),
		Duplicates:      int64(reg.Counter(gossip.MetricDuplicates)),
		PullRequests:    int64(reg.Counter(gossip.MetricPullRequests)),
		PullUpdates:     int64(reg.Counter(gossip.MetricPullUpdates)),
		Snapshots:       int64(reg.Counter(gossip.MetricSnapshots)),
		SnapshotBytes:   int64(reg.Counter(gossip.MetricSnapshotBytes)),
		LogCompacted:    int64(reg.Counter(gossip.MetricLogCompacted)),
	}
	if sc.Config.LinkBudget > 0 {
		for _, p := range net.Peers {
			if n := p.PeakPendingPerDest(); n > res.SenderPeakPending {
				res.SenderPeakPending = n
			}
		}
	}
	for _, u := range published {
		res.Updates = append(res.Updates, u.ID())
	}
	res.Invariants = checkInvariants(sc, net, en, published, applied, res)
	res.Passed = true
	for _, inv := range res.Invariants {
		res.Passed = res.Passed && inv.Passed
	}
	return res, nil
}
