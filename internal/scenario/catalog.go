package scenario

import (
	"fmt"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/gossip"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/simnet"
)

// catalogN is the population size shared by the catalog scenarios — small
// enough that the full matrix runs in well under a second per seed, large
// enough for partitions, skewed links, and mass failures to have structure.
const catalogN = 60

// baseConfig is the protocol configuration the catalog runs under: fanout
// ≈ 5, decaying PF, partial lists, eager pull with a short timeout so
// recovery happens within a scenario's settle phase.
func baseConfig(n int) gossip.Config {
	return gossip.Config{
		R:            n,
		Fr:           0.08,
		NewPF:        func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList:  true,
		PullAttempts: 3,
		PullTimeout:  10,
	}
}

// spread schedules `count` writes of distinct keys across distinct peers,
// one every `every` rounds starting at `start`.
func spread(count, n, start, every int) []Publish {
	out := make([]Publish, count)
	for i := range out {
		out[i] = Publish{
			Round: start + i*every,
			Peer:  (i * 7) % n,
			Key:   fmt.Sprintf("k%02d", i),
			Value: fmt.Sprintf("v%02d", i),
		}
	}
	return out
}

// halves returns the peer sets [0, n/2) and [n/2, n).
func halves(n int) (a, b []int) {
	for i := 0; i < n/2; i++ {
		a = append(a, i)
	}
	for i := n / 2; i < n; i++ {
		b = append(b, i)
	}
	return a, b
}

// Catalog returns the named scenarios, in execution order. Each pairs one
// adversity the paper does not model with the invariants that must survive
// it; combined-chaos stacks them all.
func Catalog() []Scenario {
	return []Scenario{
		steadyState(),
		heavyChurn(),
		lossyLinks(),
		splitBrainAndHeal(),
		flappingPartition(),
		massCrashRestart(),
		slowLinkSkew(),
		slowLinkSkewThrottled(),
		combinedChaos(),
		longAbsentRejoiner(),
		unboundedHistorySoak(),
	}
}

// Find returns the catalog scenario with the given name.
func Find(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// steadyState is the control: no churn, no faults. Everything else is a
// perturbation of this baseline, and the overhead bound here is tight.
func steadyState() Scenario {
	n := catalogN
	return Scenario{
		Name:           "steady-state",
		Description:    "control run: full availability, clean links",
		N:              n,
		InitialOnline:  n,
		FaultRounds:    25,
		SettleRounds:   30,
		Config:         baseConfig(n),
		Workload:       append(spread(8, n, 0, 2), Publish{Round: 20, Peer: 3, Key: "k00", Delete: true}),
		OverheadFactor: 4,
		AnalyticSigma:  1,
	}
}

// heavyChurn runs the paper's core adversity well above its assumed rates:
// every round each online peer stays with probability 0.8 only.
func heavyChurn() Scenario {
	n := catalogN
	return Scenario{
		Name:          "heavy-churn",
		Description:   "aggressive Bernoulli churn (sigma 0.8, p_on 0.25)",
		N:             n,
		InitialOnline: n * 55 / 100,
		FaultRounds:   40,
		SettleRounds:  35,
		Config:        baseConfig(n),
		NewChurn: func(int) churn.Process {
			return churn.Bernoulli{Sigma: 0.8, POn: 0.25}
		},
		Workload:       spread(8, n, 0, 4),
		OverheadFactor: 8,
		AnalyticSigma:  0.8,
	}
}

// lossyLinks drops a quarter of all traffic, uniformly: the flooding-list
// dedup sees fewer duplicates and must not compensate with a blowup, and
// pull anti-entropy must fill every hole.
func lossyLinks() Scenario {
	n := catalogN
	cfg := baseConfig(n)
	// Loss never heals here, so convergence rides on repeated pull waves:
	// a shorter timeout and a longer settle give ~5 retry rounds, putting
	// the residual miss probability per (update, peer) below 1e-5.
	cfg.PullTimeout = 8
	return Scenario{
		Name:          "lossy-links",
		Description:   "25% independent message loss on every edge",
		N:             n,
		InitialOnline: n,
		FaultRounds:   30,
		SettleRounds:  42,
		Config:        cfg,
		NewFaults: func(int) *simnet.FaultPlane {
			return simnet.NewFaultPlane().SetDefault(simnet.EdgeFault{Drop: 0.25})
		},
		Workload:       spread(8, n, 0, 3),
		OverheadFactor: 6,
		AnalyticSigma:  1,
	}
}

// splitBrainAndHeal cuts the population in half, lets both sides write
// independently, then heals the cut: the halves must merge to one state.
func splitBrainAndHeal() Scenario {
	n := catalogN
	cfg := baseConfig(n)
	// After the heal, cross-half repair rides exclusively on pulls, and half
	// the population is stale for the other half's writes: five attempts per
	// wave make the all-targets-equally-stale wave a 3% event, and the ~5
	// waves in the settle window drive the residual divergence below 1e-8.
	cfg.PullAttempts = 5
	cfg.PullTimeout = 8
	w := spread(6, n, 0, 2)
	// Writes on both sides of the cut while it is active.
	w = append(w,
		Publish{Round: 10, Peer: 2, Key: "left", Value: "L"},
		Publish{Round: 12, Peer: n - 3, Key: "right", Value: "R"},
		Publish{Round: 16, Peer: 5, Key: "both", Value: "fromL"},
		Publish{Round: 18, Peer: n - 7, Key: "both", Value: "fromR"},
	)
	return Scenario{
		Name:          "split-brain-and-heal",
		Description:   "two-way half/half partition rounds 4..30, then heal",
		N:             n,
		InitialOnline: n,
		FaultRounds:   34,
		SettleRounds:  40,
		Config:        cfg,
		NewFaults: func(n int) *simnet.FaultPlane {
			a, b := halves(n)
			return simnet.NewFaultPlane().AddPartition(simnet.Partition{
				From: 4, Until: 30, A: a, B: b,
			})
		},
		Workload:       w,
		OverheadFactor: 6,
		AnalyticSigma:  1,
	}
}

// flappingPartition opens and closes the same cut three times — the
// membership and suspect machinery must not oscillate into divergence.
func flappingPartition() Scenario {
	n := catalogN
	cfg := baseConfig(n)
	// Same cross-half repair arithmetic as split-brain-and-heal.
	cfg.PullAttempts = 5
	cfg.PullTimeout = 8
	return Scenario{
		Name:          "flapping-partition",
		Description:   "half/half cut flapping: rounds 4..10, 14..20, 24..30",
		N:             n,
		InitialOnline: n,
		FaultRounds:   34,
		SettleRounds:  40,
		Config:        cfg,
		NewFaults: func(n int) *simnet.FaultPlane {
			a, b := halves(n)
			plane := simnet.NewFaultPlane()
			for _, window := range [][2]int{{4, 10}, {14, 20}, {24, 30}} {
				plane.AddPartition(simnet.Partition{
					From: window[0], Until: window[1], A: a, B: b,
				})
			}
			return plane
		},
		Workload:       spread(9, n, 0, 3),
		OverheadFactor: 6,
		AnalyticSigma:  1,
	}
}

// massCrashRestart combines a scheduled 50% knockout (the churn.Schedule
// event source) with process crashes that wipe volatile state and recover
// from store snapshots.
func massCrashRestart() Scenario {
	n := catalogN
	w := spread(6, n, 0, 2)
	// Writes after the catastrophe, at peers that are neither crashed nor
	// workload-owned keys colliding.
	w = append(w,
		Publish{Round: 16, Peer: 30, Key: "post0", Value: "p0"},
		Publish{Round: 18, Peer: 41, Key: "post1", Value: "p1"},
	)
	return Scenario{
		Name:          "mass-crash-restart",
		Description:   "50% knockout at round 14 (revive at 28) + 4 crash/restarts from snapshot",
		N:             n,
		InitialOnline: n,
		FaultRounds:   36,
		SettleRounds:  34,
		Config:        baseConfig(n),
		NewChurn: func(int) churn.Process {
			sched, err := churn.NewSchedule(churn.Static{},
				churn.Event{Round: 14, Kind: churn.Knockout, Fraction: 0.5},
				churn.Event{Round: 28, Kind: churn.Revive, Fraction: 1},
			)
			if err != nil {
				panic(err) // static catalog events; cannot fail
			}
			return sched
		},
		NewFaults: func(int) *simnet.FaultPlane {
			plane := simnet.NewFaultPlane()
			for i, peer := range []int{3, 9, 15, 21} {
				plane.AddCrash(peer, 10+i, 24+i)
			}
			return plane
		},
		Workload:       w,
		OverheadFactor: 8,
		AnalyticSigma:  1,
	}
}

// overwrites schedules `count` writes cycling over `keys` hot keys, one per
// round from round 0, with the writing peer hopping across the population but
// never landing on `avoid`.
func overwrites(count, keys, n, avoid int) []Publish {
	out := make([]Publish, count)
	for i := range out {
		peer := (i*7 + 1) % n
		if peer == avoid {
			peer = (peer + 1) % n
		}
		out[i] = Publish{
			Round: i,
			Peer:  peer,
			Key:   fmt.Sprintf("hot%02d", i%keys),
			Value: fmt.Sprintf("v%03d", i),
		}
	}
	return out
}

// retentionConfig layers the janitor and snapshot knobs onto the base
// catalog configuration: periodic pulls feed the stable frontier, the
// janitor compacts on a fixed cadence, stale pull clocks age out of the
// frontier (so one long-dead peer cannot pin compaction forever), and a
// pull gap past the threshold and the live state — or past the compaction
// watermark — is answered with one snapshot stream.
func retentionConfig(n int) gossip.Config {
	cfg := baseConfig(n)
	cfg.PullEvery = 6
	cfg.CompactEvery = 10
	cfg.FrontierTTL = 24
	cfg.SnapshotCatchUp = 40
	return cfg
}

// longAbsentRejoiner crashes one peer for nearly the whole run while the
// rest of the population overwrites a small key set and compacts the
// history away. The rejoiner's pull gap is below every surviving delta, so
// it must be caught up by exactly one snapshot, whose size is bounded by
// the live state — not by the ~50 updates it slept through.
func longAbsentRejoiner() Scenario {
	n := catalogN
	cfg := retentionConfig(n)
	// One pull target per wave: the rejoiner's catch-up must be a single
	// snapshot stream, not one per contacted peer. Timeout pulls stay off
	// for the same reason; periodic pulls cover the stragglers.
	cfg.PullAttempts = 1
	cfg.PullTimeout = 0
	return Scenario{
		Name:          "long-absent-rejoiner",
		Description:   "peer 7 crashed rounds 2..56 rejoins via one snapshot catch-up",
		N:             n,
		InitialOnline: n,
		FaultRounds:   58,
		SettleRounds:  30,
		Config:        cfg,
		NewFaults: func(int) *simnet.FaultPlane {
			return simnet.NewFaultPlane().AddCrash(7, 2, 56)
		},
		Workload:         overwrites(50, 10, n, 7),
		OverheadFactor:   6,
		AnalyticSigma:    1,
		LogBoundFactor:   3,
		RejoinByteFactor: 3,
		ExpectSnapshots:  1,
	}
}

// unboundedHistorySoak hammers a handful of hot keys with sustained
// overwrites — 15× more updates than keys — and requires every peer's
// resident log to stay proportional to the live key count. Without frontier
// compaction this workload grows the log linearly forever.
func unboundedHistorySoak() Scenario {
	n := catalogN
	cfg := retentionConfig(n)
	cfg.PullEvery = 5
	cfg.CompactEvery = 8
	cfg.FrontierTTL = 20
	return Scenario{
		Name:           "unbounded-history-soak",
		Description:    "120 overwrites of 8 hot keys; resident log stays O(live keys)",
		N:              n,
		InitialOnline:  n,
		FaultRounds:    122,
		SettleRounds:   30,
		Config:         cfg,
		Workload:       overwrites(120, 8, n, -1),
		OverheadFactor: 6,
		AnalyticSigma:  1,
		LogBoundFactor: 4,
	}
}

// slowLinkSkew delays and reorders a fifth of the directed edges: old pushes
// land late and permuted, exercising the duplicate and obsolete paths.
func slowLinkSkew() Scenario {
	n := catalogN
	return Scenario{
		Name:          "slow-link-skew",
		Description:   "a fifth of edges carry +2..4 rounds latency with reordering",
		N:             n,
		InitialOnline: n,
		FaultRounds:   30,
		SettleRounds:  30,
		Config:        baseConfig(n),
		NewFaults: func(n int) *simnet.FaultPlane {
			plane := simnet.NewFaultPlane()
			slow := simnet.EdgeFault{Delay: 2, Jitter: 2, Reorder: true}
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from != to && (from+to)%5 == 0 {
						plane.SetEdge(from, to, slow)
					}
				}
			}
			return plane
		},
		Workload:       spread(8, n, 0, 3),
		OverheadFactor: 5,
		AnalyticSigma:  1,
	}
}

// slowLinkSkewThrottled reruns slowLinkSkew's fault plane and workload with
// a hard per-destination link budget and the coalescing senders it enables:
// over-budget traffic merges into per-destination pending deltas (the
// simulator mirror of the live runtime's per-peer senders) instead of
// queueing. On top of the core invariants — delivery and convergence must
// still hold through links that refuse most of the offered traffic — it
// asserts the coalescing memory bound: no pending delta ever exceeds a
// small multiple of the live key count, however much traffic was refused.
func slowLinkSkewThrottled() Scenario {
	sc := slowLinkSkew()
	sc.Name = "slow-link-skew-throttled"
	sc.Description = "slow-link-skew + hot-key overwrites under a 1 msg/round/dest link budget; coalescing senders stay O(state)"
	// One message per destination per round: any round in which a peer owes
	// a destination a push plus an ack, a pull exchange, or several hot-key
	// versions must coalesce the excess rather than emit it.
	sc.Config.LinkBudget = 1
	sc.SenderBoundFactor = 2
	// Sustained overwrites of a small hot-key set: the newest-version-wins
	// merge rule is what keeps pending deltas from growing with the 40
	// publishes — the invariant bound is stated in distinct keys (8).
	sc.Workload = overwrites(40, 8, sc.N, -1)
	sc.OverheadFactor = 6
	// Budgeted links trickle: give anti-entropy a longer stable tail to
	// finish the merge.
	sc.SettleRounds = 40
	return sc
}

// combinedChaos stacks everything: churn, loss, slow edges, a partition, a
// knockout wave, crash/restarts — with the §6 ack optimisation on, so the
// suspect machinery runs under fire too.
func combinedChaos() Scenario {
	n := catalogN
	cfg := baseConfig(n)
	cfg.Acks = true
	cfg.SuspectTTL = 8
	// Standing loss plus a partition: give recovery the same five-attempt,
	// short-timeout pull regime as the partition scenarios.
	cfg.PullAttempts = 5
	cfg.PullTimeout = 8
	w := spread(8, n, 0, 3)
	w = append(w, Publish{Round: 26, Peer: 50, Key: "late", Value: "chaos"})
	return Scenario{
		Name:          "combined-chaos",
		Description:   "churn + 10% loss + slow edges + partition + knockout + crashes, acks on",
		N:             n,
		InitialOnline: n * 2 / 3,
		FaultRounds:   40,
		SettleRounds:  40,
		Config:        cfg,
		NewChurn: func(int) churn.Process {
			sched, err := churn.NewSchedule(
				churn.Bernoulli{Sigma: 0.85, POn: 0.3},
				churn.Event{Round: 20, Kind: churn.Knockout, Fraction: 0.3},
				churn.Event{Round: 30, Kind: churn.Revive, Fraction: 1},
			)
			if err != nil {
				panic(err) // static catalog events; cannot fail
			}
			return sched
		},
		NewFaults: func(n int) *simnet.FaultPlane {
			plane := simnet.NewFaultPlane().SetDefault(simnet.EdgeFault{Drop: 0.1})
			slow := simnet.EdgeFault{Drop: 0.1, Delay: 1, Jitter: 2, Reorder: true}
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from != to && (from+to)%6 == 0 {
						plane.SetEdge(from, to, slow)
					}
				}
			}
			var quarter, rest []int
			for i := 0; i < n; i++ {
				if i < n/4 {
					quarter = append(quarter, i)
				} else {
					rest = append(rest, i)
				}
			}
			plane.AddPartition(simnet.Partition{From: 8, Until: 18, A: quarter, B: rest})
			plane.AddCrash(5, 6, 22)
			plane.AddCrash(11, 9, 25)
			return plane
		},
		Workload:       w,
		OverheadFactor: 12,
		AnalyticSigma:  0.85,
	}
}
