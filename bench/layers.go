package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// Per-layer figures of the traced run. Three sources, all in this package:
// boundary spans (trace.go), counts read from each node's Metrics.Counters()
// and runtime.MemStats after the run (this file), and layer probes that
// replay the workload's own update stream through each layer's functions
// (probes.go).

// tracedShare is the part of its window a steady_put traced run records
// spans for: every other time slice, the rest being the base for
// proc.trace_overhead_frac.
const tracedShare = 0.5

// layerCounts fills the count-derived per-layer metrics from the fleet's
// counter deltas over the window.
func layerCounts(v map[string]float64, d map[string]float64, updates float64, firstDeliveries int64,
	mem, memBefore memCounters, cpu time.Duration) {
	v["node.watch_dropped"] = d["node.watch.dropped"]
	v["live.dup_per_update"] = ratio(d["live.push.duplicate"], updates)
	v["live.pull_updates_per_request"] = ratio(d["live.pull.updates"], d["live.pull.requests"])
	v["live.send_coalesced"] = d["live.send.coalesced"]
	v["live.send_failed"] = d["live.send.failed"]
	v["live.snapshot_served"] = d["live.snapshot.served"]
	v["wal.fsyncs_per_update"] = ratio(d["wal.fsyncs"], updates)
	v["wal.appends_per_fsync"] = ratio(d["wal.appends"], d["wal.fsyncs"])
	v["wal.bytes_per_update"] = ratio(d["wal.append_bytes"], updates)
	v["wal.checkpoints"] = d["wal.checkpoints"]
	// The registry does not count its own calls; the sum of all counter
	// deltas, leaving out the byte and millisecond accumulators, bounds them
	// from above (an Add(n) is one call).
	incs := 0.0
	for name, delta := range d {
		if name == "wal.append_bytes" || strings.HasPrefix(name, "http.latency_ms.") {
			continue
		}
		incs += delta
	}
	v["metrics.incs_per_update"] = ratio(incs, updates)
	v["proc.alloc_bytes_per_update"] = ratio(float64(mem.allocBytes-memBefore.allocBytes), updates)
	v["proc.allocs_per_update"] = ratio(float64(mem.allocs-memBefore.allocs), updates)
	v["proc.gc_pause_ms"] = float64(mem.gcPauseNS-memBefore.gcPauseNS) / 1e6
	// Carried for the budget in finishBudget.
	v["budget.first_deliveries_per_update"] = ratio(float64(firstDeliveries), updates)
	v["budget.cpu_us_per_update"] = usPer(cpu, updates)
	v["budget.msgs_per_update"] = ratio(d["live.push.sent"], updates)
}

// traceLayers fills the span-derived per-layer metrics;
// tracedUpdates is how many updates were published while spans were recorded.
func traceLayers(v map[string]float64, tr *tracer, tracedUpdates float64) {
	v["live.handle_push_us"] = tr.medianUS("live.handle_push")
	v["live.handle_pullreq_us"] = tr.medianUS("live.handle_pullreq")
	v["live.handle_pullresp_us"] = tr.medianUS("live.handle_pullresp")
	v["live.send_us"] = tr.medianUS("live.send")
	sends := float64(tr.spanCount("live.send"))
	v["live.frames_per_send"] = ratio(float64(tr.counter("live.frames")), sends)
	v["live.sends_per_update"] = ratio(sends, tracedUpdates)
	v["live.bytes_per_update"] = ratio(float64(tr.counter("live.bytes")), tracedUpdates)
	v["wire.snapshot_frame_bytes"] = ratio(float64(tr.counter("wire.snapshot_bytes")), float64(tr.counter("wire.snapshot_frames")))
}

// storeShape reads what the run left in one node's store: the mean version
// history length over live keys and the widest branch set.
func storeShape(n *pushpull.Node) (depthMean, branchesMax float64) {
	st := n.Store()
	keys := n.Keys()
	depth := 0
	for _, k := range keys {
		revs := st.Versions(k)
		if b := float64(len(revs)); b > branchesMax {
			branchesMax = b
		}
		if len(revs) > 0 {
			depth += len(revs[0].Version)
		}
	}
	return ratio(float64(depth), float64(len(keys))), branchesMax
}

// residentBytesPerUpdate is the live heap after a forced collection divided
// by the log entries resident on all open nodes. The benchmark's own samples
// are in the numerator too; they are a few percent of it.
func residentBytesPerUpdate(fl ...*fleet) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	entries := 0
	for _, f := range fl {
		for _, m := range f.members {
			if m.node != nil {
				entries += m.node.Store().UpdateCount()
			}
		}
	}
	return ratio(float64(ms.HeapAlloc), float64(entries))
}

// finishBudget closes the per-layer CPU budget: cpu_us_per_update is split
// into what the layer probes account for — probe time × calls per update —
// and the remainder, so the parts add up to the whole by construction.
func finishBudget(v map[string]float64) {
	first := v["budget.first_deliveries_per_update"]
	dups := v["live.dup_per_update"]
	msgs := v["budget.msgs_per_update"]
	attributed := v["store.overwrite_us"] + v["wal.append_us"] + v["engine.publish_us"] +
		first*(v["store.apply_us"]+v["wal.append_us"]+v["engine.push_first_us"]) +
		dups*(v["store.apply_dup_us"]+v["engine.push_dup_us"]) +
		msgs*(v["engine.render_push_us"]+v["wire.encode_push_us"]+v["wire.decode_push_us"]) +
		v["metrics.incs_per_update"]*v["metrics.inc_us"]
	v["proc.unattributed_us_per_update"] = v["budget.cpu_us_per_update"] - attributed
}

// traceInputs is what a live workload hands to finishTrace.
type traceInputs struct {
	tr              *tracer
	d               map[string]float64 // counter deltas over the window
	updates         float64            // updates published in the window
	tracedUpdates   float64            // ... of which while spans were recorded
	firstDeliveries int64              // (update, replica) first arrivals in the window
	mem, memBefore  memCounters
	cpu             time.Duration
	stream          []write // the workload's own writes, for the probes
	nodes, fanout   int
}

// finishTrace completes a traced run's per-layer table — counts, spans,
// probes, budget — and writes the span file. Problems are reported, not
// fatal: the per-layer table has no bearing on correctness.
func finishTrace(cfg runConfig, v map[string]float64, in traceInputs) {
	layerCounts(v, in.d, in.updates, in.firstDeliveries, in.mem, in.memBefore, in.cpu)
	traceLayers(v, in.tr, in.tracedUpdates)
	if err := runProbes(v, in.stream, in.nodes, in.fanout, cfg.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: layer probes:", err)
	}
	finishBudget(v)
	if err := in.tr.writeFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
	}
}

// pushUsefulFrac is the share of received pushes that were not duplicates.
func pushUsefulFrac(d map[string]float64) float64 {
	return 1 - ratio(d["live.push.duplicate"], d["live.push.received"])
}
