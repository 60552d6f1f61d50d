package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// saturate_publish: closed loop, throughput. Five nodes with fanout 5 — at
// least N−1, so every update is pushed straight to every replica: no
// forwards, no duplicates. Two publishers call Node.Publish directly on
// nodes 0 and 1 (no HTTP: an optimisation of the serve edge must predict no
// change here), each with at most 512 updates published but not yet applied
// everywhere, over 20,000 keys of its own. Every pipeline layer is CPU-bound,
// per-peer coalescing and group commit are engaged, and the 1 s pull timer
// of the common configuration fires into the middle of it.
//
// The issue's shape — 300,000 updates on one long-lived fleet — is measured,
// but it cannot carry a regression bound on this host: every node keeps
// per-update state for good, the heap reaches 2.5–3.5 GB, the collector's mark
// phases last seconds and cut throughput to a third while they run, and which
// of the 225 pulls are answered with a snapshot of the whole store is a
// matter of timing. Over ten runs its throughput spreads by 0.2–0.3 of its
// median, whichever way the work is sliced. So, as the issue prescribes for a
// timing that cannot be made steady, that figure sits in the per-layer table
// (proc.sustained_ups, proc.sustained_rss_mb; the traced run measures it
// after its episodes, with recording off), and the bounded figures come from
// the same traffic in episodes of fixed work, each on a fresh fleet: every
// episode walks the same heap trajectory, and the run reports the median
// episode.

const (
	saturateNodes  = 5
	saturateFanout = 5
	// saturateEpisodeUpdates is one episode's timed work per publisher: under
	// three seconds here, so a run holds seven or eight episodes and a burst
	// from a co-tenant or a pull storm spoils one or two of them, not the
	// median.
	saturateEpisodeUpdates = 30000
	// saturateSustainedPerSecond sizes the sustained regime's fixed work per
	// publisher by the run's length alone: 2 × 150,000 updates at 20 s.
	saturateSustainedPerSecond = 7500
	// saturateWarmupUpdates per publisher are published before the clock
	// starts: connections dial and the senders start.
	saturateWarmupUpdates = 2000
)

// saturateEpisode is what one episode measured.
type saturateEpisode struct {
	setupS   float64
	rate     float64 // updates applied on all replicas per second
	peakRSS  float64 // resident-set high-water mark of the episode in MB
	cpu      time.Duration
	updates  float64
	counters map[string]float64 // deltas over the timed part
	mem      [2]memCounters     // before, after
	traced   bool
}

func runSaturatePublish(cfg runConfig) (*result, error) {
	res := &result{Values: make(map[string]float64)}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	start := time.Now()
	var eps []saturateEpisode
	v := res.Values
	// At least two episodes, so a traced run has one of each kind.
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		// In a traced run every other episode records spans; the untraced
		// ones are the base the tracing overhead is taken against.
		traced := tr != nil && n%2 == 1
		ep, err := runSaturateEpisode(cfg, n, saturateEpisodeUpdates, tr, traced, res, v)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}

	var setups, rates, tracedRates, baseRates, cpus, peaks []float64
	d := make(map[string]float64)
	var updates, tracedUpdates float64
	var cpu time.Duration
	var mem memCounters
	for _, ep := range eps {
		setups = append(setups, ep.setupS)
		rates = append(rates, ep.rate)
		cpus = append(cpus, usPer(ep.cpu, ep.updates))
		peaks = append(peaks, ep.peakRSS)
		updates += ep.updates
		cpu += ep.cpu
		for k, x := range ep.counters {
			d[k] += x
		}
		mem.addDelta(ep.mem[1], ep.mem[0])
		if ep.traced {
			tracedRates = append(tracedRates, ep.rate)
			tracedUpdates += ep.updates
		} else {
			baseRates = append(baseRates, ep.rate)
		}
	}
	// Every episode sets up a fresh fleet; setup_s is the median episode's.
	v["setup_s"] = median(setups)
	v["delivered_ups"] = median(rates)
	v["cpu_us_per_update"] = median(cpus)
	v["peak_rss_mb"] = median(peaks)

	if tr != nil {
		v["proc.trace_overhead_frac"] = 1 - ratio(median(tracedRates), median(baseRates))
		// The issue's regime, with recording off: one fleet, all the work.
		sustained, err := runSaturateEpisode(cfg, len(eps), int(cfg.seconds*saturateSustainedPerSecond), tr, false, res, v)
		if err != nil {
			return nil, err
		}
		v["proc.sustained_ups"] = sustained.rate
		v["proc.sustained_rss_mb"] = sustained.peakRSS
		pad := valuePad(cfg.seed)
		stream := make([]write, probeWrites)
		for i := range stream {
			stream[i] = write{saturateKey(cfg.seed, 0, i), makeValue(opID(0, i), pad)}
		}
		finishTrace(cfg, v, traceInputs{tr: tr, d: d, updates: updates, tracedUpdates: tracedUpdates,
			firstDeliveries: int64(updates) * (saturateNodes - 1), mem: mem, cpu: cpu,
			stream: stream, nodes: saturateNodes, fanout: saturateFanout})
	}
	return res, nil
}

// runSaturateEpisode sets up a fresh fleet, publishes `count` updates per
// publisher through two windowed publishers, checks the outcome and closes
// the fleet. In a traced run it first reads the store's shape into v.
func runSaturateEpisode(cfg runConfig, n, count int, tr *tracer, traced bool, res *result, v map[string]float64) (saturateEpisode, error) {
	ep := saturateEpisode{traced: traced}
	resetPeakRSS()
	// Every episode sets a fleet up; the first is timed from process start.
	setupFrom := time.Now()
	if n == 0 {
		setupFrom = processStart
	}
	// No Watch subscription here: see pubWindow for why it cannot carry the
	// closed loop.
	fl, err := openFleet(fleetConfig{
		nodes: saturateNodes, fanout: saturateFanout, snapshotCatchUp: fleetSnapshotCatchUp,
		pullInterval: fleetPullInterval, janitorInterval: fleetJanitorInterval,
		dir: filepath.Join(cfg.outDir, fmt.Sprintf("wal-%s-%d", cfg.workload, n)), seed: cfg.seed, tr: tr,
	})
	if err != nil {
		return ep, err
	}
	defer func() {
		fl.close()
		// Hand the episode's heap back, so the next one starts where this
		// one did.
		runtime.GC()
		debug.FreeOSMemory()
	}()
	pad := valuePad(cfg.seed)
	pubs := make([]*publisher, saturatePublishers)
	for p := range pubs {
		var receivers []*pushpull.Node
		for i, m := range fl.members {
			if i != p {
				receivers = append(receivers, m.node)
			}
		}
		pubs[p] = &publisher{idx: p, node: fl.members[p].node, pad: pad,
			win: newPubWindow(fl.members[p].node, receivers, saturateWindow)}
	}
	ctx := context.Background()
	// publish has both publishers write `count` more updates each and waits
	// until all of them are applied everywhere, or nothing more was for
	// convergeTimeout.
	publish := func(count int) bool {
		var wg sync.WaitGroup
		for _, pub := range pubs {
			wg.Add(1)
			go func(pub *publisher) {
				defer wg.Done()
				for i := 0; i < count; i++ {
					pub.publish(ctx, saturateKey(cfg.seed, pub.idx, int(pub.count)))
				}
			}(pub)
		}
		wg.Wait()
		for _, pub := range pubs {
			last, lastAt := pub.win.released.Load(), time.Now()
			for last < pub.count {
				time.Sleep(200 * time.Microsecond)
				if now := pub.win.released.Load(); now > last {
					last, lastAt = now, time.Now()
				} else if time.Since(lastAt) > convergeTimeout {
					return false
				}
			}
		}
		return true
	}

	ok := publish(saturateWarmupUpdates)
	// Set-up ends where the timed work begins: fleet and warm-up.
	ep.setupS = time.Since(setupFrom).Seconds()
	if tr != nil {
		tr.on.Store(traced)
	}
	before := fl.counters()
	ep.mem[0] = readMem()
	cpuBefore := cpuTime()
	t0 := time.Now()
	ok = publish(count) && ok
	elapsed := time.Since(t0)
	ep.cpu = cpuTime() - cpuBefore
	ep.mem[1] = readMem()
	ep.peakRSS = peakRSSMB()
	if tr != nil {
		tr.on.Store(false)
	}
	for _, pub := range pubs {
		pub.win.close()
	}
	ep.updates = float64(saturatePublishers * count)
	ep.rate = ep.updates / elapsed.Seconds()

	// Correctness: every Publish succeeded, everything published is applied
	// everywhere, the fleet holds one state, and every key reads back its
	// last write on the node that wrote it.
	convErr := fl.converged(convergeTimeout)
	ep.counters = counterDelta(fl.counters(), before)
	res.Attempted += saturatePublishers*(saturateWarmupUpdates+count) + 2
	if !ok {
		res.fail(1, "episode %d: updates still undelivered %v after the last progress", n, convergeTimeout)
	}
	if convErr != nil {
		res.fail(1, "episode %d: convergence: %v", n, convErr)
	}
	for p, pub := range pubs {
		res.fail(pub.errs, "episode %d: publisher %d: %d Publish calls failed", n, p, pub.errs)
		// The last saturateKeys writes went to distinct keys, so each is its
		// key's last.
		first := int(pub.count) - saturateKeys
		if first < 0 {
			first = 0
		}
		bad := 0
		for i := first; i < int(pub.count); i++ {
			rev, found := pub.node.Get(saturateKey(cfg.seed, p, i))
			if !found || !bytes.Equal(rev.Value, makeValue(opID(p, i), pad)) {
				bad++
			}
		}
		res.Attempted += int(pub.count) - first
		res.fail(bad, "episode %d: publisher %d: %d keys do not read back their last write", n, p, bad)
	}
	if tr != nil {
		v["store.history_depth_mean"], v["store.branches_max"] = storeShape(fl.members[0].node)
		v["store.resident_bytes_per_update"] = residentBytesPerUpdate(fl)
	}
	return ep, nil
}
