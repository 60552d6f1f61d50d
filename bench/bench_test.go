package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tt := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, tt.p); !near(got, tt.want) {
			t.Errorf("percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestSliceMedianIgnoresABurst(t *testing.T) {
	// Eight slices of one second, ten samples each at value 1; one slice is
	// hit by a burst that multiplies its values by 50. The plain mean moves,
	// the slice median does not.
	var samples []sample
	for s := 0; s < slices; s++ {
		for i := 0; i < 10; i++ {
			v := 1.0
			if s == 3 {
				v = 50
			}
			samples = append(samples, sample{at: float64(s) + float64(i)/10, v: v})
		}
	}
	if got := sliceMedian(samples, slices, 50, 5); got != 1 {
		t.Errorf("sliceMedian = %v, want 1", got)
	}
	// Slices with too few samples are skipped, not averaged in.
	sparse := append([]sample{{at: 7.5, v: 1000}}, samples[:70]...)
	if got := sliceMedian(sparse, slices, 50, 5); got != 1 {
		t.Errorf("sliceMedian with a sparse slice = %v, want 1", got)
	}
	// With no usable slice it falls back to the whole sample.
	if got := sliceMedian([]sample{{0.1, 3}, {0.2, 5}}, slices, 50, 5); got != 4 {
		t.Errorf("sliceMedian fallback = %v, want 4", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	want := (31.0 - 3.5) / 13.5
	if got := quartileSpread(xs); !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSteadyScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	d := 6 * time.Second
	a, b := steadySchedule(7, 0, d), steadySchedule(7, 0, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, steadySchedule(8, 0, d)) {
		t.Fatal("different seeds, same schedule")
	}
	if reflect.DeepEqual(a, steadySchedule(7, 1, d)) {
		t.Fatal("different clients, same schedule")
	}

	// Fixed rate, and no op a correct system would fail: GET, query and
	// DELETE only name keys that were PUT and not since deleted.
	period := time.Second * steadyClients / steadyRate
	live := make(map[string]bool)
	kinds := make(map[opKind]int)
	for i, o := range a {
		if want := period * time.Duration(i); o.Due != want {
			t.Fatalf("op %d due %v, want %v", i, o.Due, want)
		}
		if o.ID != opID(0, i) || opClient(o.ID) != 0 || opIndex(o.ID) != i {
			t.Fatalf("op %d has ID %x", i, o.ID)
		}
		kinds[o.Kind]++
		switch o.Kind {
		case opPut:
			if !strings.HasPrefix(o.Key, "shared/") {
				live[o.Key] = true
			}
		case opDelete:
			if !live[o.Key] {
				t.Fatalf("op %d deletes %q, which is not live", i, o.Key)
			}
			delete(live, o.Key)
		default:
			if !live[o.Key] {
				t.Fatalf("op %d reads %q, which is not live", i, o.Key)
			}
		}
	}
	n := float64(len(a))
	for kind, share := range map[opKind]float64{opPut: 0.80, opGet: 0.10, opQuery: 0.05, opDelete: 0.05} {
		if got := float64(kinds[kind]) / n; math.Abs(got-share) > 0.03 {
			t.Errorf("%v is %.3f of the mix, want about %.2f", kind, got, share)
		}
	}
}

func TestOtherGeneratorsAreDeterministic(t *testing.T) {
	if !reflect.DeepEqual(rejoinKeys(3, 2), rejoinKeys(3, 2)) || reflect.DeepEqual(rejoinKeys(3, 2), rejoinKeys(4, 2)) {
		t.Error("rejoinKeys is not a pure function of (seed, phase)")
	}
	if len(rejoinKeys(1, 0)) != rejoinPrefill || len(rejoinKeys(1, 5)) != rejoinBurst {
		t.Error("rejoinKeys returned the wrong number of writes")
	}
	if saturateKey(5, 1, 9) != saturateKey(5, 1, 9+saturateKeys) || saturateKey(5, 0, 9) == saturateKey(5, 1, 9) {
		t.Error("saturateKey must cycle per publisher and never share a key between publishers")
	}
	if got := simFloods(defaultSeconds); got != 8 {
		t.Errorf("simFloods(%d) = %d, want 8", defaultSeconds, got)
	}
	if got := simFloods(0.5); got != 1 {
		t.Errorf("simFloods(0.5) = %d, want 1", got)
	}
	for seed, want := range map[int64]int64{1: 1, 10: 10, 11: 1, 26: 6, 0: 10, -3: 7} {
		if got := scenarioSeed(seed); got != want {
			t.Errorf("scenarioSeed(%d) = %d, want %d", seed, got, want)
		}
	}
	pad := valuePad(9)
	v := makeValue(opID(1, 77), pad)
	if id, ok := valueOpID(v); !ok || id != opID(1, 77) || len(v) != valueBytes {
		t.Errorf("value round trip: id %x ok %v len %d", id, ok, len(v))
	}
}

// TestTracedTransportKeepsTheFramePaths pins the property the whole traced
// run rests on: a Replica coalesces per peer only when its transport is a
// FrameSender, and sends a merged delta as one write only through
// FrameBatchSender — the decorator must offer both and forward them.
func TestTracedTransportKeepsTheFramePaths(t *testing.T) {
	a, err := live.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := live.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tr := newTracer()
	tr.on.Store(true)
	wrapped := traceTransport(tr, 0, a)
	defer wrapped.Close()
	if _, ok := wrapped.(live.FrameSender); !ok {
		t.Fatal("decorated TCP transport lost FrameSender")
	}
	fbs, ok := wrapped.(live.FrameBatchSender)
	if !ok {
		t.Fatal("decorated TCP transport lost FrameBatchSender")
	}
	if wrapped.Addr() != a.Addr() {
		t.Fatalf("Addr %q, want %q", wrapped.Addr(), a.Addr())
	}

	var got atomic.Int64
	done := make(chan struct{})
	traceTransport(tr, 1, b).SetHandler(func(env wire.Envelope) {
		if env.Kind == wire.KindPush && got.Add(1) == 3 {
			close(done)
		}
	})
	var frames []*wire.Frame
	for seq := uint64(1); seq <= 3; seq++ {
		env := wire.Envelope{Kind: wire.KindPush, From: a.Addr(),
			Update: wire.Update{Origin: "w", Seq: seq, Key: "k", Value: []byte("v")}}
		f, err := wire.NewFrame(&env)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if err := fbs.SendFrames(b.Addr(), frames); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		f.Release()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of 3 frames", got.Load())
	}
	if n := tr.spanCount("live.send"); n != 1 {
		t.Errorf("3 frames in one batch recorded %d send spans, want 1", n)
	}
	if n := tr.counter("live.frames"); n != 3 {
		t.Errorf("counted %d frames, want 3", n)
	}
	if n := tr.spanCount("live.handle_push"); n != 3 {
		t.Errorf("recorded %d inbound push spans, want 3", n)
	}

	// A transport without the frame paths must not gain them by decoration:
	// that would switch the Replica onto the coalescing path.
	mem, err := live.NewHub().Attach("mem")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := traceTransport(tr, 0, mem).(live.FrameSender); ok {
		t.Error("decorating an in-memory transport made it a FrameSender")
	}
	if traceTransport(nil, 0, a) != live.Transport(a) {
		t.Error("a nil tracer must leave the transport undecorated")
	}
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMeetsTheDriversContract checks spec.go against the limits the
// benchmark driver enforces before a single run.
func TestSpecMeetsTheDriversContract(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not allowed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if len(m.Workloads) == 0 {
			t.Errorf("%s is measured on no workload", m.Name)
		}
		for _, w := range m.Workloads {
			if workloadFuncs[w] == nil {
				t.Errorf("%s is measured on unknown workload %s", m.Name, w)
			}
		}
	}
	for _, m := range perLayer {
		if m.Target == "" {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
	}
	setup, ok := findMetric(endToEnd, "setup_s")
	if !ok || setup.Unit != "s" || setup.Better != lower {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d", defaultSeconds)
	}
}

func TestBenchmarkJSONIsGeneratedFromSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run ./bench -print-spec > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has keys %v, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", keys)
	}
}

func TestPlaceholder(t *testing.T) {
	got := measurePlaceholder()
	if want := placeholderWait.Seconds(); got < want || got > 2*want {
		t.Errorf("placeholder %v s, want the length of a %v wait", got, placeholderWait)
	}
	for _, m := range endToEnd {
		x := placeholderFor(m, got)
		if m.Bound == 0 && x != 1 {
			t.Errorf("%s admits no variation, its placeholder is %v, want the constant 1", m.Name, x)
		}
		if m.Bound > 0 && x != got {
			t.Errorf("%s: placeholder %v, want the measured %v", m.Name, x, got)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "x", Better: lower, Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, tt := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", m, steady(100), steady(103), "same"},
		{"worse", m, steady(100), steady(115), "worse"},
		{"better", m, steady(100), steady(80), "better"},
		{"noisy", m, []float64{60, 100, 140, 80, 120}, steady(130), "unresolved"},
		{"higher is better", metricSpec{Better: higher, Bound: 0.10}, steady(100), steady(80), "worse"},
	} {
		if got := verdict(tt.m, tt.a, tt.b); got != tt.want {
			t.Errorf("%s: verdict %q, want %q", tt.name, got, tt.want)
		}
	}
}

// TestSmoke runs `bench -smoke`: every workload for two seconds, in this
// process, through the same code as a real run — it keeps the benchmark
// compiling and runnable. It checks what the driver checks of a run: the
// result is correct and every end-to-end metric is there and not zero — a
// measurement on the workloads the spec names, the placeholder elsewhere.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for two seconds each")
	}
	dir := t.TempDir()
	oldOut, oldSpawn := outDir, spawn
	defer func() { outDir, spawn = oldOut, oldSpawn }()
	outDir = dir
	var lines []driverLine
	var results []*result
	spawn = func(cfg runConfig, _ io.Writer) (driverLine, error) {
		res, err := runWorkload(cfg)
		if err != nil {
			return driverLine{}, err
		}
		for _, f := range res.Failures {
			t.Errorf("%s: %s", cfg.workload, f)
		}
		lines = append(lines, res.line())
		results = append(results, res)
		return res.line(), nil
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if len(lines) != len(workloadSpecs) {
		t.Fatalf("ran %d workloads, want %d", len(lines), len(workloadSpecs))
	}
	for i, l := range lines {
		w := workloadSpecs[i].Name
		if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w, l.Correct, l.Attempted, l.Failed)
		}
		if len(l.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w, len(l.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := l.Metrics[m.Name]
			if !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (present %v)", w, m.Name, v, ok)
			}
			measured, set := results[i].Values[m.Name]
			switch {
			case m.measuredOn(w) && (!set || v.Value != measured):
				t.Errorf("%s: %s is to be measured here, reported %v, measured %v (set %v)", w, m.Name, v.Value, measured, set)
			case !m.measuredOn(w) && (set || v.Value != placeholderFor(m, results[i].Placeholder)):
				t.Errorf("%s: %s is not measured here, reported %v (set %v)", w, m.Name, v.Value, set)
			}
		}
	}
	for _, w := range workloadSpecs {
		if !strings.Contains(stdout.String(), w.Name+": attempted") {
			t.Errorf("table has no section for %s:\n%s", w.Name, stdout.String())
		}
	}
}

// TestTracedRunFillsThePerLayerTable runs the shortest traced workload and
// checks the per-layer line: every metric present, the span file written, and
// the CPU budget adding up.
func TestTracedRunFillsThePerLayerTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload for a second")
	}
	dir := t.TempDir()
	res, err := runWorkload(runConfig{workload: wlSteadyPut, seed: 2, seconds: 1, trace: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Error(f)
	}
	l := res.line()
	if len(l.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(l.Metrics), len(perLayer))
	}
	for _, name := range []string{"serve.put_us", "live.handle_push_us", "live.send_us", "engine.push_first_us",
		"store.apply_us", "wal.append_us", "wire.encode_push_us", "metrics.inc_us", "node.publish_us", "wal.fsyncs_per_update"} {
		if !(l.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive figure", name, l.Metrics[name].Value)
		}
	}
	v := res.Values
	attributed := v["budget.cpu_us_per_update"] - v["proc.unattributed_us_per_update"]
	if !(attributed > 0) || !(v["budget.cpu_us_per_update"] > attributed) {
		t.Errorf("budget: cpu %v, attributed %v", v["budget.cpu_us_per_update"], attributed)
	}
	if fi, err := os.Stat(dir + "/trace-" + wlSteadyPut + ".json"); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
