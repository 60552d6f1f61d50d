package main

import (
	"encoding/json"
	"time"
)

// This file is the benchmark's contract in one place: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer metrics
// with the end-to-end figure each is expected to move. BENCHMARK.json at the
// repository root is generated from it (`-print-spec`) and a test keeps the
// two identical.

// The four workloads. Later issues cite these names.
const (
	wlSteadyPut       = "steady_put"
	wlSaturatePublish = "saturate_publish"
	wlRejoin          = "rejoin"
	wlSimFlood        = "sim_flood"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 20

// defaultSeed is the committed default input seed.
const defaultSeed = 1

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlSteadyPut, "open loop, 8 nodes at fanout 3 behind HTTP at a quarter of the CPU: forwards, duplicates, PF decay and pull healing set latency, not queueing"},
	{wlSaturatePublish, "closed loop, 5 nodes pushed to directly and no HTTP: every pipeline layer CPU-bound, coalescing and group commit engaged"},
	{wlRejoin, "the paper's section 4.3: an offline replica recovers its WAL and catches up by pull, entry-by-entry and by snapshot side by side"},
	{wlSimFlood, "deterministic simulator only: engine/gossip/simnet do all the work, counts repeat per seed, scenario invariants gate it"},
}

// metricSpec describes one reported metric. Bound and Workloads apply to
// end-to-end metrics, Target to per-layer ones.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may get
	// worse before a change is rejected.
	Bound float64
	// Workloads lists the workloads the metric is measured on. On any other
	// workload a run reports the placeholder under this name.
	Workloads []string
	// Target names the end-to-end metric(s) and workload a per-layer metric
	// is expected to move.
	Target string
}

const (
	lower  = "lower"
	higher = "higher"
)

var allWorkloads = []string{wlSteadyPut, wlSaturatePublish, wlRejoin, wlSimFlood}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: allWorkloads},
	{Name: "put_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{wlSteadyPut}},
	{Name: "propagate_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{wlSteadyPut}},
	{Name: "propagate_p75_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{wlSteadyPut}},
	{Name: "push_coverage", Unit: "frac", Better: higher, Bound: 0.02, Workloads: []string{wlSteadyPut}},
	{Name: "msgs_per_update", Unit: "msgs", Better: lower, Bound: 0.02, Workloads: []string{wlSteadyPut}},
	{Name: "push_useful_frac", Unit: "frac", Better: higher, Bound: 0.02, Workloads: []string{wlSteadyPut}},
	{Name: "delivered_ups", Unit: "1/s", Better: higher, Bound: 0.25, Workloads: []string{wlSaturatePublish}},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20, Workloads: []string{wlSaturatePublish, wlRejoin}},
	{Name: "cpu_us_per_update", Unit: "us", Better: lower, Bound: 0.25, Workloads: []string{wlSaturatePublish}},
	{Name: "recover_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: []string{wlRejoin}},
	{Name: "rejoin_delta_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: []string{wlRejoin}},
	{Name: "rejoin_snapshot_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: []string{wlRejoin}},
	// Exact: the floods run on a fixed seed set, so the count is one number
	// for one protocol and any change to it is a change to the protocol.
	{Name: "sim_msgs_per_peer", Unit: "msgs", Better: lower, Bound: 0, Workloads: []string{wlSimFlood}},
	{Name: "sim_wall_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: []string{wlSimFlood}},
}

// measuredOn reports whether the metric is measured on the workload.
func (m metricSpec) measuredOn(workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// placeholderWait is the fixed wait whose measured length is the placeholder.
const placeholderWait = 20 * time.Millisecond

// measurePlaceholder returns what a run reports, under every end-to-end
// metric its workload does not measure, in place of a measurement. The
// driver's contract has every run report every end-to-end metric ("with
// --trace 0 the metrics are every end_to_end metric"), wants none of them 0,
// and rejects a time that reads exactly the same on every run. So the
// placeholder is a time that is measured and that nothing in the repository
// can move: the length of a busy wait of placeholderWait (the median of five,
// should one be preempted), in seconds, whatever the metric's unit. Every
// unmeasured metric of a run reads the same ≈0.02; it says nothing and can
// trip no bound.
func measurePlaceholder() float64 {
	var waits []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for time.Since(start) < placeholderWait {
		}
		waits = append(waits, time.Since(start).Seconds())
	}
	return median(waits)
}

// placeholderFor is the placeholder as reported under metric m. A metric
// with bound 0 admits no variation at all, so there it is the constant 1.
func placeholderFor(m metricSpec, measured float64) float64 {
	if m.Bound == 0 {
		return 1
	}
	return measured
}

var perLayer = []metricSpec{
	// serve: the HTTP edge. Nothing here may move saturate_publish.
	{Name: "serve.put_us", Unit: "us", Better: lower, Target: "put_p50_ms, cpu_us_per_update @ steady_put"},
	{Name: "serve.get_us", Unit: "us", Better: lower, Target: "cpu_us_per_update @ steady_put"},
	{Name: "serve.query_p50_ms", Unit: "ms", Better: lower, Target: "put_p50_ms @ steady_put (three remote round trips: the first figure to drift with the host)"},
	{Name: "serve.query_us", Unit: "us", Better: lower, Target: "serve.query_p50_ms @ steady_put"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: lower, Target: "put_p50_ms @ steady_put"},
	{Name: "serve.errors", Unit: "count", Better: lower, Target: "failed @ steady_put"},
	// node: the public Node API.
	{Name: "node.publish_us", Unit: "us", Better: lower, Target: "put_p50_ms @ steady_put; delivered_ups @ saturate_publish"},
	{Name: "node.watch_dropped", Unit: "count", Better: lower, Target: "failed @ steady_put, saturate_publish"},
	// live: transport, per-peer senders, inbound handling.
	{Name: "live.propagate_p90_ms", Unit: "ms", Better: lower, Target: "propagate_p75_ms @ steady_put (the knee of the distribution: stalls, not path length)"},
	{Name: "live.handle_push_us", Unit: "us", Better: lower, Target: "propagate_p50_ms @ steady_put; delivered_ups @ saturate_publish"},
	{Name: "live.handle_pullreq_us", Unit: "us", Better: lower, Target: "push_coverage @ steady_put; rejoin_delta_s, rejoin_snapshot_s @ rejoin"},
	{Name: "live.handle_pullresp_us", Unit: "us", Better: lower, Target: "rejoin_delta_s, rejoin_snapshot_s @ rejoin"},
	{Name: "live.send_us", Unit: "us", Better: lower, Target: "propagate_p50_ms @ steady_put; delivered_ups @ saturate_publish"},
	{Name: "live.frames_per_send", Unit: "count", Better: higher, Target: "delivered_ups @ saturate_publish"},
	{Name: "live.sends_per_update", Unit: "count", Better: lower, Target: "cpu_us_per_update @ steady_put; delivered_ups @ saturate_publish"},
	{Name: "live.bytes_per_update", Unit: "B", Better: lower, Target: "delivered_ups @ saturate_publish; rejoin_delta_s, rejoin_snapshot_s @ rejoin"},
	{Name: "live.dup_per_update", Unit: "count", Better: lower, Target: "msgs_per_update @ steady_put"},
	{Name: "live.pull_updates_per_request", Unit: "count", Better: higher, Target: "push_coverage @ steady_put; rejoin_delta_s @ rejoin"},
	{Name: "live.send_coalesced", Unit: "count", Better: higher, Target: "delivered_ups @ saturate_publish"},
	{Name: "live.send_failed", Unit: "count", Better: lower, Target: "push_coverage @ steady_put"},
	{Name: "live.snapshot_served", Unit: "count", Better: lower, Target: "rejoin_snapshot_s @ rejoin"},
	// engine: the protocol state machine (pre-applied entry points).
	{Name: "engine.publish_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish; put_p50_ms @ steady_put"},
	{Name: "engine.push_first_us", Unit: "us", Better: lower, Target: "propagate_p50_ms @ steady_put; delivered_ups @ saturate_publish; sim_wall_s @ sim_flood"},
	{Name: "engine.push_dup_us", Unit: "us", Better: lower, Target: "cpu_us_per_update @ steady_put; sim_wall_s @ sim_flood"},
	{Name: "engine.render_push_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "engine.render_pullresp_us", Unit: "us", Better: lower, Target: "rejoin_delta_s, rejoin_snapshot_s @ rejoin"},
	// store: the versioned store behind every apply.
	{Name: "store.apply_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "store.apply_dup_us", Unit: "us", Better: lower, Target: "cpu_us_per_update @ steady_put"},
	{Name: "store.overwrite_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "store.delta_us_per_update", Unit: "us", Better: lower, Target: "rejoin_delta_s @ rejoin"},
	{Name: "store.snapshot_write_us_per_entry", Unit: "us", Better: lower, Target: "rejoin_snapshot_s @ rejoin"},
	{Name: "store.restore_us_per_entry", Unit: "us", Better: lower, Target: "rejoin_snapshot_s, recover_s @ rejoin"},
	{Name: "store.compact_us_per_entry", Unit: "us", Better: lower, Target: "peak_rss_mb @ saturate_publish"},
	{Name: "store.history_depth_mean", Unit: "count", Better: lower, Target: "peak_rss_mb @ saturate_publish"},
	{Name: "store.branches_max", Unit: "count", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "store.resident_bytes_per_update", Unit: "B", Better: lower, Target: "peak_rss_mb @ saturate_publish, rejoin"},
	// wal: the write-ahead log under fsync interval 5 ms.
	{Name: "wal.append_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish; cpu_us_per_update @ steady_put"},
	{Name: "wal.fsyncs_per_update", Unit: "count", Better: lower, Target: "cpu_us_per_update @ steady_put"},
	{Name: "wal.appends_per_fsync", Unit: "count", Better: higher, Target: "delivered_ups @ saturate_publish"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: lower, Target: "recover_s @ rejoin"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: lower, Target: "recover_s @ rejoin"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: lower, Target: "delivered_ups @ saturate_publish; recover_s @ rejoin"},
	{Name: "wal.checkpoints", Unit: "count", Better: lower, Target: "delivered_ups @ saturate_publish"},
	// wire: the binary codec.
	{Name: "wire.encode_push_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "wire.decode_push_us", Unit: "us", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "wire.push_frame_bytes", Unit: "B", Better: lower, Target: "delivered_ups @ saturate_publish"},
	{Name: "wire.encode_pullresp_us_per_update", Unit: "us", Better: lower, Target: "rejoin_delta_s @ rejoin"},
	{Name: "wire.decode_pullresp_us_per_update", Unit: "us", Better: lower, Target: "rejoin_delta_s @ rejoin"},
	{Name: "wire.snapshot_frame_bytes", Unit: "B", Better: lower, Target: "rejoin_snapshot_s @ rejoin"},
	// metrics: the counter registry every push, ack and apply takes.
	{Name: "metrics.inc_us", Unit: "us", Better: lower, Target: "delivered_ups, cpu_us_per_update @ saturate_publish"},
	{Name: "metrics.incs_per_update", Unit: "count", Better: lower, Target: "delivered_ups, cpu_us_per_update @ saturate_publish"},
	// gossip / simnet / scenario: the simulator.
	{Name: "gossip.msgs_per_s", Unit: "1/s", Better: higher, Target: "sim_wall_s @ sim_flood"},
	{Name: "gossip.dup_frac", Unit: "frac", Better: lower, Target: "sim_msgs_per_peer @ sim_flood"},
	{Name: "simnet.rounds", Unit: "count", Better: lower, Target: "sim_wall_s @ sim_flood"},
	{Name: "scenario.suite_s", Unit: "s", Better: lower, Target: "sim_wall_s @ sim_flood"},
	// proc: the process as a whole.
	{Name: "proc.alloc_bytes_per_update", Unit: "B", Better: lower, Target: "cpu_us_per_update, peak_rss_mb"},
	{Name: "proc.allocs_per_update", Unit: "count", Better: lower, Target: "cpu_us_per_update"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, Target: "propagate_p75_ms @ steady_put"},
	{Name: "proc.unattributed_us_per_update", Unit: "us", Better: lower, Target: "cpu_us_per_update"},
	{Name: "proc.sustained_ups", Unit: "1/s", Better: higher, Target: "delivered_ups @ saturate_publish (the issue's regime: all the work on one long-lived fleet; spreads by 0.2-0.3)"},
	{Name: "proc.sustained_rss_mb", Unit: "MB", Better: lower, Target: "peak_rss_mb @ saturate_publish (same regime: per-update state that is never dropped)"},
	{Name: "proc.gen_late_p99_ms", Unit: "ms", Better: lower, Target: "validity of steady_put"},
	{Name: "proc.trace_overhead_frac", Unit: "frac", Better: lower, Target: "validity of the traced run"},
}

// benchmarkJSON renders BENCHMARK.json in the form the driver's contract
// prescribes: exactly the keys command, paths, run_seconds, workloads,
// end_to_end (name, unit, better, bound) and per_layer (name, unit, better).
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
