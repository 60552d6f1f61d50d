package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// Layer probes. After a traced run the workload's own write stream — the
// keys and values it generated, in order — is replayed single-threaded
// through each layer's functions, and the median time per call reported. A
// probe says what a call costs in isolation with warm caches; multiplied by
// the calls per update counted in the run it gives that layer's line of the
// CPU budget (finishBudget).

// write is one write of a workload's stream.
type write struct {
	key   string
	value []byte
}

// probeWrites caps the stream a probe replays; probes take a few seconds in
// all.
const probeWrites = 20000

// probeBatch is how many calls one timing covers: a call costs a few
// microseconds or less and reading the clock twice costs a tenth of one.
const probeBatch = 32

// perCallUS times fn over every item in batches of probeBatch and returns
// the median batch's time per call in microseconds.
func perCallUS(n int, fn func(i int)) float64 {
	var per []float64
	for lo := 0; lo < n; lo += probeBatch {
		hi := lo + probeBatch
		if hi > n {
			hi = n
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		per = append(per, usPer(time.Since(start), float64(hi-lo)))
	}
	return median(per)
}

// probeEndpoint is an engine endpoint that discards every send, so a probe
// times the engine and not a transport.
type probeEndpoint struct{ rng *rand.Rand }

func (probeEndpoint) Self() string                        { return "probe:self" }
func (probeEndpoint) Send(string, engine.Message[string]) {}
func (probeEndpoint) Now() int64                          { return time.Now().UnixNano() }
func (ep probeEndpoint) Rand() *rand.Rand                 { return ep.rng }
func newProbeEngine(st store.Backend, w *store.Writer, peers, fanout int) (*engine.Engine[string], error) {
	e, err := engine.New(engine.Config[string]{
		Fanout:          float64(fanout),
		NewPF:           func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList:     true,
		PullAttempts:    3,
		SnapshotCatchUp: fleetSnapshotCatchUp,
		LazySweep:       true,
		QueryLocalVoice: true,
		DeferPullRender: true,
	}, probeEndpoint{rand.New(rand.NewSource(1))}, st, w)
	if err != nil {
		return nil, err
	}
	for i := 0; i < peers; i++ {
		e.Learn(fmt.Sprintf("probe:%d", i))
	}
	return e, nil
}

// runProbes replays the stream through store, wal, wire, engine, metrics and
// the Node API and fills the probe-derived per-layer metrics. nodes and
// fanout shape the engine probes like the workload's fleet.
func runProbes(v map[string]float64, stream []write, nodes, fanout int, dir string) error {
	if len(stream) > probeWrites {
		stream = stream[:probeWrites]
	}
	if len(stream) == 0 {
		return nil
	}
	n := len(stream)
	rng := rand.New(rand.NewSource(1))

	// store, origin side: the writer's put (sequence, version extension,
	// apply) — and the stream of updates every other probe consumes.
	origin := store.NewSharded(0)
	w, err := store.NewWriter("probe:origin", origin, nil, rng)
	if err != nil {
		return err
	}
	updates := make([]store.Update, n)
	v["store.overwrite_us"] = perCallUS(n, func(i int) {
		updates[i], _ = w.PutObserved(stream[i].key, stream[i].value)
	})

	// store, replica side: first receipt, then the duplicate short-circuit
	// the live ingest path takes (Seen, then BranchCount).
	replica := store.NewSharded(0)
	v["store.apply_us"] = perCallUS(n, func(i int) { replica.ApplyObserved(updates[i]) })
	v["store.apply_dup_us"] = perCallUS(n, func(i int) {
		if replica.Seen(updates[i].Ref()) {
			replica.BranchCount(updates[i].Key)
		}
	})

	// store, catch-up: the delta for a peer missing the newer half, the
	// snapshot both ways, and log compaction.
	half := version.Clock{"probe:origin": uint64(n / 2)}
	start := time.Now()
	delta, _ := replica.DeltaFor(half)
	v["store.delta_us_per_update"] = usPer(time.Since(start), float64(len(delta)))
	var snap bytes.Buffer
	start = time.Now()
	if err := replica.WriteSnapshot(&snap); err != nil {
		return err
	}
	entries := float64(replica.UpdateCount())
	v["store.snapshot_write_us_per_entry"] = usPer(time.Since(start), entries)
	restored := store.NewSharded(0)
	start = time.Now()
	if err := restored.RestoreSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		return err
	}
	v["store.restore_us_per_entry"] = usPer(time.Since(start), entries)
	start = time.Now()
	dropped := restored.CompactLog(restored.Clock())
	v["store.compact_us_per_entry"] = usPer(time.Since(start), float64(dropped))

	// wal: append under the fleet's policy, checkpoint, replay.
	walDir := filepath.Join(dir, "probe-wal")
	_ = os.RemoveAll(walDir)
	defer os.RemoveAll(walDir)
	opts := wal.Options{Dir: walDir, Policy: wal.SyncInterval, Interval: fleetFsyncInterval}
	l, err := wal.Open(opts)
	if err != nil {
		return err
	}
	var appendErr error
	v["wal.append_us"] = perCallUS(n, func(i int) {
		if err := l.Append(updates[i]); err != nil {
			appendErr = err
		}
	})
	if err := l.Close(); err != nil || appendErr != nil {
		return fmt.Errorf("wal probe: append %v, close %v", appendErr, err)
	}
	if l, err = wal.Open(opts); err != nil {
		return err
	}
	start = time.Now()
	st, err := l.Replay(func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	v["wal.replay_us_per_record"] = usPer(time.Since(start), float64(st.Records))
	start = time.Now()
	if _, err := l.Checkpoint(replica.WriteSnapshot); err != nil {
		return err
	}
	v["wal.checkpoint_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	if err := l.Close(); err != nil {
		return err
	}

	// wire: one push frame per update with a flooding list as long as the
	// fanout, and a pull response of 1,000 updates.
	rf := make([]string, fanout)
	for i := range rf {
		rf[i] = fmt.Sprintf("127.0.0.1:%d", 40000+i)
	}
	frames := make([][]byte, n)
	bytesTotal := 0
	var wireErr error
	v["wire.encode_push_us"] = perCallUS(n, func(i int) {
		env := wire.Envelope{Kind: wire.KindPush, From: "127.0.0.1:39999", Update: wire.FromStore(updates[i]), RF: rf, T: 1}
		f, err := wire.NewFrame(&env)
		if err != nil {
			wireErr = err
			return
		}
		frames[i] = append([]byte(nil), f.Bytes()...)
		bytesTotal += len(frames[i])
		f.Release()
	})
	if wireErr != nil {
		return wireErr
	}
	v["wire.push_frame_bytes"] = ratio(float64(bytesTotal), float64(n))
	var env wire.Envelope
	v["wire.decode_push_us"] = perCallUS(n, func(i int) {
		// A frame is a 4-byte length followed by the body.
		if err := wire.DecodeBody(frames[i][4:], &env); err != nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return wireErr
	}
	batch := 1000
	if batch > n {
		batch = n
	}
	resp := wire.Envelope{Kind: wire.KindPullResp, From: "127.0.0.1:39999", Updates: make([]wire.Update, batch)}
	for i := range resp.Updates {
		resp.Updates[i] = wire.FromStore(updates[i])
	}
	var encoded []byte
	enc := perCallUS(probeBatch, func(int) {
		f, err := wire.NewFrame(&resp)
		if err != nil {
			wireErr = err
			return
		}
		encoded = append(encoded[:0], f.Bytes()...)
		f.Release()
	})
	if wireErr != nil {
		return wireErr
	}
	dec := perCallUS(probeBatch, func(int) {
		if err := wire.DecodeBody(encoded[4:], &env); err != nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return wireErr
	}
	v["wire.encode_pullresp_us_per_update"] = enc / float64(batch)
	v["wire.decode_pullresp_us_per_update"] = dec / float64(batch)

	// engine: the pre-applied entry points the live runtime drives, against
	// a discarding endpoint.
	peers := nodes - 1
	eo, err := newProbeEngine(origin, w, peers, fanout)
	if err != nil {
		return err
	}
	v["engine.publish_us"] = perCallUS(n, func(i int) { eo.PublishApplied(updates[i], 1) })
	v["engine.render_push_us"] = perCallUS(n, func(i int) { eo.RenderPush(updates[i].Ref()) })
	rw, err := store.NewWriter("probe:replica", replica, nil, rng)
	if err != nil {
		return err
	}
	er, err := newProbeEngine(replica, rw, peers, fanout)
	if err != nil {
		return err
	}
	msg := func(i int) engine.Message[string] {
		return engine.Message[string]{Kind: engine.KindPush, Update: updates[i], RF: rf[:1], T: 1}
	}
	v["engine.push_first_us"] = perCallUS(n, func(i int) {
		er.HandlePushApplied("probe:0", msg(i), engine.Applied{Res: store.Applied, Branches: 1})
	})
	v["engine.push_dup_us"] = perCallUS(n, func(i int) {
		er.HandlePushApplied("probe:1", msg(i), engine.Applied{Res: store.Duplicate, Branches: 1})
	})
	v["engine.render_pullresp_us"] = perCallUS(probeBatch, func(int) { er.RenderPullResp(half) })

	// metrics: the registry's Inc with two goroutines contending, as the
	// two busiest paths of a node do.
	reg := metrics.NewRegistry()
	const incs = 200000
	var wg sync.WaitGroup
	start = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				reg.Inc("live.push.received")
			}
		}()
	}
	wg.Wait()
	v["metrics.inc_us"] = usPer(time.Since(start), incs)

	// node: Publish on a lone node with the fleet's WAL policy — writer,
	// log append and engine together, no peer to push to.
	nodeDir := filepath.Join(dir, "probe-node")
	_ = os.RemoveAll(nodeDir)
	defer os.RemoveAll(nodeDir)
	nl, err := pushpull.OpenWAL(pushpull.WALOptions{Dir: nodeDir, Policy: pushpull.WALSyncInterval, Interval: fleetFsyncInterval})
	if err != nil {
		return err
	}
	defer nl.Close()
	node, err := pushpull.Open(pushpull.WithTCP("127.0.0.1:0"), pushpull.WithWAL(nl), pushpull.WithMetrics(pushpull.NewMetrics()))
	if err != nil {
		return err
	}
	ctx := context.Background()
	var pubErr error
	v["node.publish_us"] = perCallUS(n, func(i int) {
		if _, err := node.Publish(ctx, stream[i].key, stream[i].value); err != nil {
			pubErr = err
		}
	})
	if err := node.Close(ctx); err != nil {
		return err
	}
	return pubErr
}
