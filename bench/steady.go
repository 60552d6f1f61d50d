package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// steady_put: open loop, latency. Eight nodes with fanout 3 — more nodes
// than fanout+1, the paper's regime, so updates travel by forwards, draw
// duplicates, decay by PF(t) and a few percent of (update, replica) pairs
// heal by pull. Two clients, one keep-alive connection each, drive nodes 0
// and 1 through their serve.Server at 500 op/s in total (about a quarter of
// this host's CPU) on a fixed schedule, and every op is timed from the
// instant it was due.

const (
	steadyNodes  = 8
	steadyFanout = 3
	// steadyWarmupMax is discarded: connections dial, the runtime grows its
	// heaps and the peers' send goroutines start. A smoke run warms up for
	// half its window.
	steadyWarmupMax = 2 * time.Second
	// convergeTimeout is how long a fleet may take to reach equal clocks and
	// state after the last op before the run counts as failed.
	convergeTimeout = 10 * time.Second
)

// clientStats is what one steady_put client measured.
type clientStats struct {
	lat      [4][]sample // per opKind: latency in ms from the due instant
	late     []sample    // generator lateness per op in ms
	writes   int         // acknowledged PUT+DELETE due inside the window
	attempts int
	errs     []string
	// final is the last acknowledged write per key: the op ID of a PUT, or
	// deleted.
	final map[string]finalWrite
}

type finalWrite struct {
	id      uint64
	deleted bool
}

func runSteadyPut(cfg runConfig) (*result, error) {
	res := &result{Values: make(map[string]float64)}
	window := time.Duration(cfg.seconds * float64(time.Second))
	warmup := steadyWarmupMax
	if window/2 < warmup {
		warmup = window / 2
	}
	total := warmup + window

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	dl := newDeliveries(steadyNodes)
	dl.tr = tr
	fcfg := fleetConfig{
		nodes: steadyNodes, fanout: steadyFanout, snapshotCatchUp: fleetSnapshotCatchUp,
		pullInterval: fleetPullInterval, janitorInterval: fleetJanitorInterval,
		httpNodes: steadyClients, dir: filepath.Join(cfg.outDir, "wal-"+cfg.workload),
		seed: cfg.seed, tr: tr, onEvent: dl.onEvent,
	}
	fl, err := openFleet(fcfg)
	if err != nil {
		return nil, err
	}
	defer fl.close()

	schedules := make([][]op, steadyClients)
	for c := range schedules {
		schedules[c] = steadySchedule(cfg.seed, c, total)
	}
	pad := valuePad(cfg.seed)

	start := time.Now().Add(20 * time.Millisecond)
	windowStart := start.Add(warmup)
	dl.clock.Store(&deliveryClock{windowStart, func(id uint64) (time.Time, bool) {
		c, i := opClient(id), opIndex(id)
		if c >= len(schedules) || i >= len(schedules[c]) || schedules[c][i].Due < warmup {
			return time.Time{}, false
		}
		return start.Add(schedules[c][i].Due), true
	}})
	// Process start → first timed op: the fleet's set-up and the warm-up.
	res.Values["setup_s"] = windowStart.Sub(processStart).Seconds()

	// In a traced run recording is on in every other time slice only: the same
	// process, the same fleet, decorators in place but idle in between — the
	// base the tracing overhead is taken against.
	if tr != nil {
		for i := 1; i < slices; i++ {
			on := i%2 == 1
			time.AfterFunc(time.Until(windowStart.Add(window*time.Duration(i)/slices)), func() { tr.on.Store(on) })
		}
	}

	// Counters, CPU and allocations are read when the warm-up ends, so the
	// figures per update cover the window alone.
	type snapshot struct {
		counters   map[string]float64
		cpu        time.Duration
		mem        memCounters
		push, pull int64
	}
	snapCh := make(chan snapshot, 1)
	time.AfterFunc(time.Until(windowStart), func() {
		snapCh <- snapshot{fl.counters(), cpuTime(), readMem(), dl.pushTotal(), dl.pullTotal()}
	})

	stats := make([]*clientStats, steadyClients)
	var wg sync.WaitGroup
	for c := range schedules {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = steadyClient(c, fl.members[c].httpURL, schedules[c], start, warmup, pad, tr)
		}(c)
	}
	wg.Wait()

	before := <-snapCh
	convErr := fl.converged(convergeTimeout)
	after := fl.counters()
	cpu := cpuTime() - before.cpu
	mem := readMem()
	pushes, pulls := dl.pushTotal()-before.push, dl.pullTotal()-before.pull
	if tr != nil {
		tr.on.Store(false)
	}

	// Correctness: every reply was 2xx, the fleet converged, no Watch event
	// was dropped, and every acknowledged write reads back on its node.
	writes := 0
	var gen, put, query []sample
	for c, st := range stats {
		res.Attempted += st.attempts
		res.fail(len(st.errs), "client %d: %d failed ops, first: %s", c, len(st.errs), first(st.errs))
		writes += st.writes
		gen = append(gen, st.late...)
		put = append(put, st.lat[opPut]...)
		query = append(query, st.lat[opQuery]...)
		res.Attempted += len(st.final)
		res.fail(verifyReads(fl.members[c], st.final, pad), "client %d: acknowledged writes not readable on node %d", c, c)
	}
	res.Attempted++
	if convErr != nil {
		res.fail(1, "convergence: %v", convErr)
	}
	d := counterDelta(after, before.counters)
	res.fail(int(after["node.watch.dropped"]), "dropped Watch events")
	v := res.Values
	if tr != nil {
		v["store.history_depth_mean"], v["store.branches_max"] = storeShape(fl.members[0].node)
		v["store.resident_bytes_per_update"] = residentBytesPerUpdate(fl)
	}

	// The fleet must be closed before the watchers' samples are read.
	fl.close()
	prop := dl.latencies()

	w := window.Seconds()
	updates := float64(writes)
	v["put_p50_ms"] = sliceMedian(put, w, 50, 20)
	v["propagate_p50_ms"] = sliceMedian(prop, w, 50, 50)
	v["propagate_p75_ms"] = sliceMedian(prop, w, 75, 50)
	v["push_coverage"] = ratio(float64(pushes), updates*(steadyNodes-1))
	v["msgs_per_update"] = ratio(d["live.push.sent"], updates)
	v["push_useful_frac"] = pushUsefulFrac(d)
	if convErr != nil || len(prop) == 0 {
		// A fleet that did not converge is missing every latency figure.
		for _, name := range []string{"put_p50_ms", "propagate_p50_ms", "propagate_p75_ms"} {
			v[name] = 0
		}
	}
	v["proc.gen_late_p99_ms"] = sliceMedian(gen, w, 99, 100)

	if tr != nil {
		v["serve.put_us"] = tr.medianUS("serve.put")
		v["serve.get_us"] = tr.medianUS("serve.get")
		v["serve.query_us"] = tr.medianUS("serve.query")
		v["serve.query_p50_ms"] = sliceMedian(query, w, 50, 5)
		v["serve.http_overhead_us"] = tr.medianUS("client.put") - tr.medianUS("serve.put")
		v["serve.errors"] = float64(tr.counter("serve.errors")) + sumPrefix(d, "http.errors.")
		v["live.propagate_p90_ms"] = sliceMedian(prop, w, 90, 50)
		var traced, base []float64
		for i := 0; i < slices; i++ {
			p50 := median(valuesBetween(prop, w*float64(i)/slices, w*float64(i+1)/slices))
			if i%2 == 1 {
				traced = append(traced, p50)
			} else {
				base = append(base, p50)
			}
		}
		v["proc.trace_overhead_frac"] = ratio(median(traced), median(base)) - 1
		var stream []write
		for _, o := range schedules[0] {
			if o.Kind == opPut {
				stream = append(stream, write{o.Key, makeValue(o.ID, pad)})
			}
		}
		finishTrace(cfg, v, traceInputs{tr: tr, d: d, updates: updates, firstDeliveries: pushes + pulls,
			tracedUpdates: updates * tracedShare, mem: mem, memBefore: before.mem, cpu: cpu,
			stream: stream, nodes: steadyNodes, fanout: steadyFanout})
	}
	return res, nil
}

// steadyClient plays one client's schedule over one keep-alive connection.
func steadyClient(c int, base string, ops []op, start time.Time, warmup time.Duration, pad []byte, tr *tracer) *clientStats {
	st := &clientStats{final: make(map[string]finalWrite)}
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	prevDone := start
	ticks := pace(start, ops)
	for _, o := range ops {
		due := start.Add(o.Due)
		<-ticks
		woke := time.Now()
		measured := o.Due >= warmup
		// The generator is late by however long it woke after the later of the
		// due instant and the previous reply: a late reply is the system's
		// doing, a late wake-up the benchmark's own. Either way the op is
		// timed from the instant it was due.
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		late := woke.Sub(ready)
		if late < 0 {
			late = 0
		}
		if measured {
			st.late = append(st.late, sample{at: (o.Due - warmup).Seconds(), v: float64(late) / float64(time.Millisecond)})
			st.attempts++
		}

		var req *http.Request
		var err error
		switch o.Kind {
		case opPut:
			req, err = http.NewRequest(http.MethodPut, base+"/v1/kv/"+o.Key, bytes.NewReader(makeValue(o.ID, pad)))
		case opGet:
			req, err = http.NewRequest(http.MethodGet, base+"/v1/kv/"+o.Key, nil)
		case opDelete:
			req, err = http.NewRequest(http.MethodDelete, base+"/v1/kv/"+o.Key, nil)
		case opQuery:
			req, err = http.NewRequest(http.MethodPost, base+"/v1/query",
				bytes.NewReader([]byte(`{"key":`+strconv.Quote(o.Key)+`,"k":3}`)))
		}
		if err != nil {
			st.errs = append(st.errs, err.Error())
			continue
		}
		var spanID int64
		if tr.enabled() {
			spanID = tr.newID()
			req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
		}
		sent := time.Now()
		resp, err := client.Do(req)
		status := 0
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		done := time.Now()
		prevDone = done
		if spanID != 0 {
			tr.record(spanID, 0, "client."+o.Kind.String(), c, sent, done, "")
		}
		if err != nil || status < 200 || status > 299 {
			if measured {
				st.errs = append(st.errs, fmt.Sprintf("%s %s: status %d err %v", o.Kind, o.Key, status, err))
			}
			continue
		}
		switch o.Kind {
		case opPut:
			st.final[o.Key] = finalWrite{id: o.ID}
		case opDelete:
			st.final[o.Key] = finalWrite{deleted: true}
		}
		if !measured {
			continue
		}
		if o.Kind == opPut || o.Kind == opDelete {
			st.writes++
		}
		st.lat[o.Kind] = append(st.lat[o.Kind], sample{
			at: (o.Due - warmup).Seconds(),
			v:  float64(done.Sub(due)) / float64(time.Millisecond),
		})
	}
	return st
}

// paceSpin is how long before an op's due instant the pacer stops sleeping
// and spins: a thread sleeping in the kernel wakes 0.1–0.2 ms late on this
// kind of host, a third of the latencies measured, and a spin this short ends
// on the instant at the price of 6 % of a core per client.
const paceSpin = 250 * time.Microsecond

// pace delivers one tick per op at the op's due instant. The Go runtime's
// timers wake a sleeping goroutine up to a millisecond late on an idle host,
// so the pacer sleeps in the kernel on a thread of its own until paceSpin
// before the instant and spins from there. (Spinning all the way is exact
// too but takes a core the system under test needs.) The channel holds every
// tick, so a client that has fallen behind finds its backlog waiting and the
// pacer never blocks.
func pace(start time.Time, ops []op) <-chan struct{} {
	ticks := make(chan struct{}, len(ops))
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for _, o := range ops {
			due := start.Add(o.Due)
			if wait := time.Until(due) - paceSpin; wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // an early return only lengthens the spin
			}
			for time.Now().Before(due) {
			}
			ticks <- struct{}{}
		}
	}()
	return ticks
}

// verifyReads checks that every key's last acknowledged write is what its
// node serves; keys of the shared set may have been overwritten by the other
// client and only need to exist. It returns the number of keys that fail.
func verifyReads(m *member, final map[string]finalWrite, pad []byte) int {
	bad := 0
	for key, fw := range final {
		rev, ok := m.node.Get(key)
		shared := strings.HasPrefix(key, "shared/")
		switch {
		case shared:
			if !ok {
				bad++
			}
		case fw.deleted:
			if ok {
				bad++
			}
		default:
			if !ok || !bytes.Equal(rev.Value, makeValue(fw.id, pad)) {
				bad++
			}
		}
	}
	return bad
}

func first(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}

func sumPrefix(m map[string]float64, prefix string) float64 {
	sum := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// valuesBetween returns the values of the samples taken in [from, to).
func valuesBetween(samples []sample, from, to float64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.at >= from && s.at < to {
			out = append(out, s.v)
		}
	}
	return out
}
