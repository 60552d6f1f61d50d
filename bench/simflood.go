package main

import (
	"fmt"
	"time"

	"github.com/p2pgossip/update/internal/experiments"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/scenario"
)

// sim_flood: the deterministic simulator. One update at a time is flooded
// through experiments.SimulatePush with the paper's large population
// (R = 10,000 of which 1,000 online, σ = 0.95, f_r = 0.01, partial list, view
// 500, PF(t) = 0.9^t), each flood followed by the whole scenario catalog.
// engine, gossip and simnet do all the work; live, wire, wal and serve none.
// The floods run on the committed seeds 1, 2, … whatever --seed says, so
// their message count is one exact number for one protocol: a protocol change
// (PF schedule, list truncation) shows as a count even when timings are
// noisy. --seed picks the scenario seeds, and the scenario invariants are the
// correctness check.

func simParams(seed int64) experiments.SimParams {
	return experiments.SimParams{
		R: simR, ROn0: simROn0, Sigma: simSigma, Fr: simFr,
		NewPF:       func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList: true, ViewSize: simViewSize, Seed: seed,
	}
}

func runSimFlood(cfg runConfig) (*result, error) {
	res := &result{Values: make(map[string]float64)}

	// Set-up is a warm-up flood: it grows the heap to its working size and
	// faults in the code, which is all the simulator has by way of set-up.
	if _, err := experiments.SimulatePush(simParams(cfg.seed)); err != nil {
		return nil, err
	}
	res.Values["setup_s"] = time.Since(processStart).Seconds()

	catalog := scenario.Catalog()
	memBefore := readMem()
	windowStart := time.Now()
	var walls, suites, perPeer []float64
	var msgs, pushes, dups, rounds, published float64
	for i := 0; i < simFloods(cfg.seconds); i++ {
		t0 := time.Now()
		sim, err := experiments.SimulatePush(simParams(simFirstSeed + int64(i)))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		res.Attempted++
		perPeer = append(perPeer, sim.MessagesPerOnlinePeer)
		msgs += sim.TotalMessages
		rounds += float64(sim.Rounds)
		published++
		seed := scenarioSeed(cfg.seed + int64(i))
		for _, sc := range catalog {
			r, err := scenario.Run(sc, seed)
			if err != nil {
				return nil, fmt.Errorf("scenario %s seed %d: %w", sc.Name, seed, err)
			}
			res.Attempted += len(r.Invariants)
			for _, inv := range r.Invariants {
				if !inv.Passed {
					res.fail(1, "scenario %s seed %d: invariant %s: %s", sc.Name, seed, inv.Name, inv.Detail)
				}
			}
			msgs += float64(r.Messages)
			pushes += float64(r.Pushes)
			dups += float64(r.Duplicates)
			rounds += float64(r.Rounds)
			published += float64(r.Published)
		}
		t2 := time.Now()
		walls = append(walls, t2.Sub(t0).Seconds())
		suites = append(suites, t2.Sub(t1).Seconds())
	}
	wall := time.Since(windowStart)
	mem := readMem()

	v := res.Values
	v["sim_wall_s"] = median(walls)
	v["sim_msgs_per_peer"] = mean(perPeer)

	if cfg.trace {
		v["gossip.msgs_per_s"] = ratio(msgs, wall.Seconds())
		v["gossip.dup_frac"] = ratio(dups, pushes)
		v["simnet.rounds"] = rounds
		v["scenario.suite_s"] = median(suites)
		v["proc.alloc_bytes_per_update"] = ratio(float64(mem.allocBytes-memBefore.allocBytes), published)
		v["proc.allocs_per_update"] = ratio(float64(mem.allocs-memBefore.allocs), published)
		v["proc.gc_pause_ms"] = float64(mem.gcPauseNS-memBefore.gcPauseNS) / 1e6
	}
	return res, nil
}
