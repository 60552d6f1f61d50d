package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/wire"
)

// Boundary tracing. The traced run records a span at every seam the public
// API already offers — the HTTP handler, the Transport a Node is opened on,
// the client's request and the Watch receive — from this package's files
// only; the program under test carries no tracing code. Spans are kept in
// memory and written to bench/out/trace-<workload>.json when the run ends.

// maxKeptSpans caps the spans kept verbatim for the trace file. Durations of
// every span, kept or not, still feed the per-name aggregates.
const maxKeptSpans = 60000

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = none visible from outside
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Node   int    `json:"node"`
	Ref    string `json:"ref,omitempty"` // update origin/seq where visible
}

// tracer collects spans. A nil *tracer is valid and records nothing, so the
// untraced run pays one nil check per boundary and nothing else.
type tracer struct {
	epoch time.Time
	// on gates recording: the first part of a traced run keeps it off to
	// measure the decorators' own overhead against the same process.
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	kept  []span
	durs  map[string][]float32 // span name -> durations in µs
	count map[string]int64     // named counts taken at the same boundaries
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		durs:  make(map[string][]float32),
		count: make(map[string]int64),
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newID reserves a span ID, so a child can name its parent before the parent
// ends.
func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// record stores one finished span; id 0 allocates one.
func (t *tracer) record(id, parent int64, name string, node int, start, end time.Time, ref string) {
	if !t.enabled() {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Node: node, Ref: ref,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
	t.durs[name] = append(t.durs[name], float32(end.Sub(start))/float32(time.Microsecond))
	t.mu.Unlock()
}

// add bumps a named count.
func (t *tracer) add(name string, n int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.count[name] += n
	t.mu.Unlock()
}

// medianUS returns the median duration of the named span in microseconds.
func (t *tracer) medianUS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, len(t.durs[name]))
	for i, d := range t.durs[name] {
		xs[i] = float64(d)
	}
	return median(xs)
}

func (t *tracer) spanCount(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.durs[name])
}

func (t *tracer) counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[name]
}

// writeFile dumps the kept spans and the counts.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
		Total  map[string]int   `json:"spans_recorded"`
	}{Spans: t.kept, Counts: t.count, Total: make(map[string]int)}
	for name, d := range t.durs {
		doc.Total[name] = len(d)
	}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// spanHeader carries the client's span ID to the handler middleware so the
// handler span can name its parent.
const spanHeader = "X-Bench-Span"

// traceHandler wraps a serve.Server: one span per request, named after the
// route and verb, parented on the client span when the request carries one.
func traceHandler(t *tracer, node int, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.record(0, parent, "serve."+routeName(r), node, start, end, "")
		if sw.status >= 400 {
			t.add("serve.errors", 1)
		}
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func routeName(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/query":
		return "query"
	case r.Method == http.MethodGet:
		return "get"
	case r.Method == http.MethodDelete:
		return "delete"
	default:
		return "put"
	}
}

// tracedTransport decorates the Transport a Node is opened on. It forwards
// the frame fast paths of the wrapped transport — a Replica only coalesces
// per peer when its transport is a FrameSender — and times every SendFrames
// call and every inbound Handler call.
type tracedTransport struct {
	inner live.Transport
	fs    live.FrameSender
	fbs   live.FrameBatchSender
	t     *tracer
	node  int
}

var (
	_ live.Transport        = (*tracedTransport)(nil)
	_ live.FrameSender      = (*tracedTransport)(nil)
	_ live.FrameBatchSender = (*tracedTransport)(nil)
)

// traceTransport wraps tr. The wrapped transport must offer both frame
// paths (the TCP transport does); anything else would silently change which
// send path the Replica picks.
func traceTransport(t *tracer, node int, tr live.Transport) live.Transport {
	fs, ok1 := tr.(live.FrameSender)
	fbs, ok2 := tr.(live.FrameBatchSender)
	if t == nil || !ok1 || !ok2 {
		return tr
	}
	return &tracedTransport{inner: tr, fs: fs, fbs: fbs, t: t, node: node}
}

func (d *tracedTransport) Addr() string { return d.inner.Addr() }
func (d *tracedTransport) Close() error { return d.inner.Close() }

func (d *tracedTransport) Send(to string, env wire.Envelope) error {
	if !d.t.enabled() {
		return d.inner.Send(to, env)
	}
	start := time.Now()
	err := d.inner.Send(to, env)
	d.t.record(0, 0, "live.send", d.node, start, time.Now(), envRef(&env))
	d.t.add("live.frames", 1)
	return err
}

func (d *tracedTransport) SendFrame(to string, f *wire.Frame) error {
	if !d.t.enabled() {
		return d.fs.SendFrame(to, f)
	}
	start := time.Now()
	err := d.fs.SendFrame(to, f)
	d.t.record(0, 0, "live.send", d.node, start, time.Now(), "")
	d.t.add("live.frames", 1)
	d.t.add("live.bytes", int64(len(f.Bytes())))
	return err
}

func (d *tracedTransport) SendFrames(to string, fs []*wire.Frame) error {
	if !d.t.enabled() {
		return d.fbs.SendFrames(to, fs)
	}
	start := time.Now()
	err := d.fbs.SendFrames(to, fs)
	d.t.record(0, 0, "live.send", d.node, start, time.Now(), "")
	bytes := 0
	for _, f := range fs {
		bytes += len(f.Bytes())
	}
	d.t.add("live.frames", int64(len(fs)))
	d.t.add("live.bytes", int64(bytes))
	return err
}

func (d *tracedTransport) SetHandler(h live.Handler) {
	d.inner.SetHandler(func(env wire.Envelope) {
		if !d.t.enabled() {
			h(env)
			return
		}
		// The envelope's containers are only valid during the call: take
		// what the span needs first.
		name, ref := handleSpanName(env.Kind), envRef(&env)
		if env.Kind == wire.KindSnapshot {
			d.t.add("wire.snapshot_bytes", int64(len(env.Snapshot)))
			d.t.add("wire.snapshot_frames", 1)
		}
		start := time.Now()
		h(env)
		d.t.record(0, 0, name, d.node, start, time.Now(), ref)
	})
}

func handleSpanName(k wire.Kind) string {
	switch k {
	case wire.KindPush:
		return "live.handle_push"
	case wire.KindPullReq:
		return "live.handle_pullreq"
	case wire.KindPullResp, wire.KindSnapshot:
		return "live.handle_pullresp"
	default:
		return "live.handle_other"
	}
}

func envRef(env *wire.Envelope) string {
	if env.Kind != wire.KindPush {
		return ""
	}
	return env.Update.Origin + "/" + strconv.FormatUint(env.Update.Seq, 10)
}
