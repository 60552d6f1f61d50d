package main

import (
	"fmt"
	"sync/atomic"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// Shared measurement plumbing of the live workloads: what a run returns, how
// steady_put observes remote applies through Node.Watch, and the counter
// arithmetic.

// runConfig is one run's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // bench/out: WAL directories and trace files
}

// result is what one run measured. Values holds every figure by metric name:
// the end-to-end metrics in an untraced run, the per-layer ones in a traced
// run.
type result struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Attempted int
	Failed    int
	Failures  []string
	Values    map[string]float64
	// Placeholder is reported under the end-to-end metrics the workload does
	// not measure (see measurePlaceholder).
	Placeholder float64
	Env         envInfo
}

// fail counts n failed operations under one reason.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// deliveries records, per node, the first arrival of every remote update as
// seen through Node.Watch. Counts are atomics because the workload reads
// them mid-run; the latency samples belong to the node's watcher goroutine
// until the fleet is closed.
type deliveries struct {
	nodes []nodeDeliveries
	// clock is set once the window's start is known; events before that are
	// counted but not timed. An atomic pointer because the watchers are
	// already running by then.
	clock atomic.Pointer[deliveryClock]
	tr    *tracer
}

// deliveryClock is how deliveries turns a Watch event into a latency sample.
type deliveryClock struct {
	// windowStart anchors sample offsets for the time-slice medians.
	windowStart time.Time
	// publishedAt resolves a PUT's op ID to the instant it was due; ok=false
	// leaves the event out of the latency sample (warm-up traffic).
	publishedAt func(id uint64) (t time.Time, ok bool)
}

type nodeDeliveries struct {
	push, pull atomic.Int64
	lat        []sample // propagate latency in ms, at = publication offset in s
	_          [64]byte // keep neighbouring nodes' counters off one cache line
}

func newDeliveries(nodes int) *deliveries {
	return &deliveries{nodes: make([]nodeDeliveries, nodes)}
}

// onEvent is the fleet's Watch callback.
func (d *deliveries) onEvent(node int, ev pushpull.Event) {
	if ev.Source == pushpull.SourceLocal || ev.Kind == pushpull.EventDuplicate {
		return
	}
	now := time.Now()
	nd := &d.nodes[node]
	if ev.Source == pushpull.SourcePush {
		nd.push.Add(1)
	} else {
		nd.pull.Add(1)
	}
	clock := d.clock.Load()
	if ev.Update.Delete || clock == nil {
		return
	}
	id, ok := valueOpID(ev.Update.Value)
	if !ok {
		return
	}
	at, ok := clock.publishedAt(id)
	if !ok {
		return
	}
	nd.lat = append(nd.lat, sample{
		at: at.Sub(clock.windowStart).Seconds(),
		v:  float64(now.Sub(at)) / float64(time.Millisecond),
	})
	if d.tr.enabled() {
		d.tr.record(0, 0, "node.watch", node, at, now, ev.Update.ID())
	}
}

func (d *deliveries) pushTotal() (n int64) {
	for i := range d.nodes {
		n += d.nodes[i].push.Load()
	}
	return n
}

func (d *deliveries) pullTotal() (n int64) {
	for i := range d.nodes {
		n += d.nodes[i].pull.Load()
	}
	return n
}

// latencies merges every node's samples; call after the watchers stopped.
func (d *deliveries) latencies() []sample {
	var all []sample
	for i := range d.nodes {
		all = append(all, d.nodes[i].lat...)
	}
	return all
}

// counterDelta subtracts a counter snapshot from a later one.
func counterDelta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usPer converts a duration spread over n items to microseconds per item.
func usPer(d time.Duration, n float64) float64 {
	return ratio(float64(d)/float64(time.Microsecond), n)
}
