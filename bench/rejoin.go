package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// rejoin: the paper's §4.3 case — a replica that was offline returns and
// catches up by pull. One episode: three nodes A, B, C with a write-ahead
// log are set up and prefilled; C is closed; a burst is published to A (B
// follows by push); C is reopened from its WAL directory, and the episode
// times (a) the reopen, which is WAL recovery, and (b) how long until C's
// clock equals A's. Episodes alternate between two catch-up paths: a fleet
// with snapshot catch-up off serves C entry by entry, a fleet with the
// default threshold of 1024 serves one snapshot frame. A gain for one path
// that costs the other therefore shows in the same run, under the same drift.
//
// Every episode starts from a fresh fleet, so every one measures the same
// state. Cycling one long-lived fleet does not: version histories deepen
// with every overwrite, the resident log saw-tooths with the janitor, the
// WAL with its checkpoints, and the catch-up time of cycle 9 is ten times
// that of cycle 1.

const rejoinNodes = 3

// rejoinPath is one of the two catch-up paths and what its episodes measured.
type rejoinPath struct {
	name            string
	snapshotCatchUp int
	catchup         []float64 // seconds from C's reopen returning to C's clock = A's
	peakRSS         []float64 // resident-set high-water mark per episode in MB
}

// burst publishes keys to A (member 0) under a window over the given
// receivers and waits until every receiver applied them all.
func burst(fl *fleet, keys []string, receivers []int, pad []byte) error {
	a := fl.members[0]
	var nodes []*pushpull.Node
	for _, r := range receivers {
		nodes = append(nodes, fl.members[r].node)
	}
	p := &publisher{node: a.node, win: newPubWindow(a.node, nodes, saturateWindow), pad: pad}
	ctx := context.Background()
	for _, k := range keys {
		p.publish(ctx, k)
	}
	if !p.drain(convergeTimeout) {
		return fmt.Errorf("burst not applied on nodes %v within %v", receivers, convergeTimeout)
	}
	if p.errs > 0 {
		return fmt.Errorf("%d Publish calls failed", p.errs)
	}
	return nil
}

func runRejoin(cfg runConfig) (*result, error) {
	res := &result{Values: make(map[string]float64)}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.on.Store(true)
	}
	paths := []*rejoinPath{{name: "delta"}, {name: "snapshot", snapshotCatchUp: fleetSnapshotCatchUp}}
	pad := valuePad(cfg.seed)
	start := time.Now()

	var setups, recovers []float64
	d := make(map[string]float64)
	var updates float64
	var cpu time.Duration
	var mem memCounters
	v := res.Values
	// At least one episode per path, however short the run.
	for n := 0; n < len(paths) || time.Since(start) < budget; n++ {
		path := paths[n%2]
		resetPeakRSS()
		// Every episode sets a fleet up; the first is timed from process start.
		setupFrom := time.Now()
		if n == 0 {
			setupFrom = processStart
		}
		fl, err := openFleet(fleetConfig{
			nodes: rejoinNodes, fanout: 5, snapshotCatchUp: path.snapshotCatchUp,
			pullInterval: fleetPullInterval, janitorInterval: fleetJanitorInterval,
			dir:  filepath.Join(cfg.outDir, fmt.Sprintf("wal-%s-%d", cfg.workload, n)),
			seed: cfg.seed, tr: tr,
		})
		if err != nil {
			return nil, err
		}
		if err = burst(fl, rejoinKeys(cfg.seed, 0), []int{1, 2}, pad); err == nil {
			err = fl.converged(convergeTimeout)
		}
		if err != nil {
			fl.close()
			return nil, fmt.Errorf("episode %d: prefill: %w", n, err)
		}
		setups = append(setups, time.Since(setupFrom).Seconds())

		a, c := fl.members[0], fl.members[2]
		before := fl.counters()
		cpuBefore, memBefore := cpuTime(), readMem()

		fl.closeMember(c)
		keys := rejoinKeys(cfg.seed, 1+n/2)
		runErr := burst(fl, keys, []int{1}, pad)
		res.Attempted += len(keys) + 2
		if runErr == nil {
			target := a.node.Clock()[a.addr]
			// C comes back into a heap it shares with A and B, and whether the
			// collector wakes up during its replay — which doubles the
			// recovery — depends on how much garbage their burst left. A
			// forced collection starts every recovery from the same state.
			runtime.GC()
			t0 := time.Now()
			if runErr = fl.open(c); runErr == nil {
				t1 := time.Now()
				for c.node.Clock()[a.addr] < target && runErr == nil {
					if time.Since(t1) > convergeTimeout {
						runErr = fmt.Errorf("C still behind A %v after reopening", convergeTimeout)
					}
					time.Sleep(200 * time.Microsecond)
				}
				t2 := time.Now()
				recovers = append(recovers, t1.Sub(t0).Seconds())
				path.catchup = append(path.catchup, t2.Sub(t1).Seconds())
				updates += float64(len(keys))
				if tr.enabled() {
					id := tr.newID()
					tr.record(id, 0, "rejoin.episode."+path.name, 2, t0, t2, "")
					tr.record(0, id, "rejoin.recover", 2, t0, t1, "")
					tr.record(0, id, "rejoin.catchup."+path.name, 2, t1, t2, "")
				}
			}
		}
		if runErr == nil {
			runErr = fl.converged(convergeTimeout)
		}
		if runErr != nil {
			res.fail(1, "episode %d (%s): %v", n, path.name, runErr)
		}
		path.peakRSS = append(path.peakRSS, peakRSSMB())
		after := fl.counters()
		cpu += cpuTime() - cpuBefore
		mem.addDelta(readMem(), memBefore)
		for k, x := range counterDelta(after, before) {
			d[k] += x
		}
		served := after["live.snapshot.served"] > 0
		if runErr == nil && served != (path.snapshotCatchUp > 0) {
			res.fail(1, "episode %d: the %s fleet served a snapshot: %v", n, path.name, served)
		}
		if tr != nil {
			v["store.history_depth_mean"], v["store.branches_max"] = storeShape(a.node)
			v["store.resident_bytes_per_update"] = residentBytesPerUpdate(fl)
		}
		fl.close()
		// Hand the episode's heap back, so the next one starts where this
		// one did.
		runtime.GC()
		debug.FreeOSMemory()
	}
	// Every episode sets up a fresh fleet; setup_s is the median episode's.
	v["setup_s"] = median(setups)
	// The lower quartile, not the median: what disturbs a recovery of 40 ms —
	// a collector cycle, a slow fsync of the sandbox's disk — only ever adds
	// time and hits a third to a half of the episodes, so the median sits on
	// the edge between the two kinds. On the same ten runs the median episode
	// spread by 0.21 of its median, the lower quartile by 0.10.
	v["recover_s"] = percentile(recovers, 25)
	v["rejoin_delta_s"] = median(paths[0].catchup)
	v["rejoin_snapshot_s"] = median(paths[1].catchup)
	// The two paths peak at different heights; the higher median is the peak.
	v["peak_rss_mb"] = math.Max(median(paths[0].peakRSS), median(paths[1].peakRSS))

	if tr != nil {
		tr.on.Store(false)
		var stream []write
		for i, k := range rejoinKeys(cfg.seed, 1) {
			stream = append(stream, write{k, makeValue(opID(0, i), pad)})
		}
		finishTrace(cfg, v, traceInputs{tr: tr, d: d, updates: updates, tracedUpdates: updates,
			firstDeliveries: int64(updates) * (rejoinNodes - 1), mem: mem, cpu: cpu,
			stream: stream, nodes: rejoinNodes, fanout: 5})
	}
	return res, nil
}
