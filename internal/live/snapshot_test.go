package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// Tests for snapshot catch-up as a chunked stream of the responder's live
// cut: safety of the cut under concurrent applies, the 16 MiB single-frame
// ceiling gone for cuts and deltas alike, and the torn-stream rule on both
// ends of the link.

func testWriter(t *testing.T, origin string) *store.Writer {
	t.Helper()
	w, err := store.NewWriter(origin, store.NewSharded(1), time.Now, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

// tcpReplica starts a replica on a fresh loopback TCP transport.
func tcpReplica(t *testing.T, cfg Config) *Replica {
	t.Helper()
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(cfg, tr)
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		r.Stop()
	})
	return r
}

// pullFrom sends b's pull request to a and nobody else: the membership
// samples riding on pull answers would otherwise spread b's own pulls over
// every peer a has heard from.
func pullFrom(b, a *Replica) {
	_ = b.transport.Send(a.Addr(), wire.Envelope{
		Kind: wire.KindPullReq, From: b.Addr(), Clock: b.Store().Clock(),
	})
}

// caughtUp reports whether b holds a's clock and live state.
func caughtUp(a, b *Replica) bool {
	return b.Store().Clock().Compare(a.Store().Clock()) == version.Equal &&
		b.Store().Equal(a.Store())
}

// TestLiveCutUnderPublishBurst is the cut-safety race test: publishers hammer
// a node — whose sharded store records an update in the log before it merges
// the revision — while fresh peers that only ever learn by pull join one
// after another, each served a live cut mid-burst and deltas from then on.
// The publishers are remote origins pushing on separate connections, so
// their applies overlap the way connection readers' do. Half the writes go
// to keys never written again: a cut that dropped one of those for being
// "absent from items" would lose it behind the adopted frontier for good
// (the watermark makes every later copy a duplicate), and that peer could
// never end Equal. The other half overwrite a few hot keys, which keeps
// every cut smaller than a newcomer's delta. The burst is paced against the
// cuts: at each quarter of its rounds a publisher waits until one more cut
// has been served, so at least three land mid-burst however few threads
// the scheduler has — with one, the publishers would otherwise finish
// before the first pull is read. Run with -race.
func TestLiveCutUnderPublishBurst(t *testing.T) {
	rec, served := &recordingMetrics{}, &recordingMetrics{}
	a := tcpReplica(t, Config{Fanout: 0, SnapshotCatchUp: 1, Seed: 1, Metrics: served})

	const publishers, hot, rounds, joiners, paced = 4, 4, 400, 16, 3
	awaitCuts := func(n int) bool {
		for deadline := time.Now().Add(10 * time.Second); served.observed()[MetricSnapshotServed] < float64(n); {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(100 * time.Microsecond)
		}
		return true
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		w := testWriter(t, fmt.Sprintf("origin-%d", p))
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			push := func(u store.Update) {
				a.handle(wire.Envelope{Kind: wire.KindPush, Update: wire.FromStore(u)})
			}
			for i := 0; i < rounds; i++ {
				if stage := rounds / (paced + 1); i > 0 && i%stage == 0 && !awaitCuts(i/stage) {
					t.Errorf("publisher %d: cut %d never served", p, i/stage)
					return
				}
				push(w.Put(fmt.Sprintf("once-%d-%d", p, i), []byte("kept")))
				if key := fmt.Sprintf("hot-%d-%d", p, i%hot); i%97 == 0 {
					push(w.Delete(key))
				} else {
					push(w.Put(key, []byte{byte(i)}))
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// One pull per hundred updates the node has taken in, so the pullers load
	// it the same however slowly the race detector lets the publishers run.
	var pullers []*Replica
	for n, publishing := 0, true; publishing; {
		select {
		case <-done:
			publishing = false
		default:
			if a.Store().UpdateCount() < 100*(n+1) {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			if len(pullers) < joiners {
				pullers = append(pullers, tcpReplica(t, Config{Fanout: 0, Seed: int64(n) + 2, Metrics: rec}))
			}
			pullFrom(pullers[n%len(pullers)], a)
			n++
		}
	}
	eventually(t, 10*time.Second, func() bool {
		for _, b := range pullers {
			if !caughtUp(a, b) {
				pullFrom(b, a)
				return false
			}
		}
		return true
	}, "a puller never reached the publisher's clock and state")
	if n := rec.observed()[MetricSnapshotCatchups]; n < 3 {
		t.Fatalf("only %v pulls were answered with a live cut; the test exercised nothing", n)
	}
}

// TestSnapshotCatchUpPastFrameCeiling: a responder whose live state encodes
// to more than wire.MaxFrameBytes — the size at which the single-frame
// snapshot could never be sent and the rejoiner never caught up — serves it
// over TCP as one catch-up of many chunks.
func TestSnapshotCatchUpPastFrameCeiling(t *testing.T) {
	served, joined := &recordingMetrics{}, &recordingMetrics{}
	a := tcpReplica(t, Config{Fanout: 0, SnapshotCatchUp: 8, Seed: 1, Metrics: served})
	const keys = 24
	value := make([]byte, wire.MaxFrameBytes/keys+4096)
	for round := 0; round < 2; round++ { // overwritten once: the cut is half the delta
		for k := 0; k < keys; k++ {
			value[0] = byte(round)
			a.Publish(fmt.Sprintf("big-%02d", k), value)
		}
	}
	if cut, _ := a.Store().LiveCut(); len(cut) != keys {
		t.Fatalf("fixture: live cut has %d entries, want %d", len(cut), keys)
	}

	b := tcpReplica(t, Config{Fanout: 0, PullAttempts: 1, Seed: 2, Metrics: joined})
	var chunks atomic.Int64
	b.transport.SetHandler(func(env wire.Envelope) {
		if env.Kind == wire.KindSnapshot {
			chunks.Add(1)
		}
		b.handle(env)
	})
	b.AddPeers(a.Addr())
	b.PullNow()
	eventually(t, 20*time.Second, func() bool { return caughtUp(a, b) },
		"rejoiner not caught up past the single-frame ceiling")
	if got := chunks.Load(); got < keys {
		t.Fatalf("catch-up of %d oversized values arrived in %d chunks", keys, got)
	}
	if s, c := served.observed()[MetricSnapshotServed], joined.observed()[MetricSnapshotCatchups]; s != 1 || c != 1 {
		t.Fatalf("served %v / caught up %v; one catch-up must count once, not per chunk", s, c)
	}
}

// TestDeltaCatchUpPastFrameCeiling: with snapshot catch-up off, a delta that
// encodes to more than wire.MaxFrameBytes — which as a single frame could
// never be sent — reaches the rejoiner over TCP as many pull responses.
func TestDeltaCatchUpPastFrameCeiling(t *testing.T) {
	a := tcpReplica(t, Config{Fanout: 0, SnapshotCatchUp: 0, Seed: 1})
	const keys = 24
	value := make([]byte, wire.MaxFrameBytes/keys+4096)
	for k := 0; k < keys; k++ {
		a.Publish(fmt.Sprintf("big-%02d", k), value)
	}

	b := tcpReplica(t, Config{Fanout: 0, PullAttempts: 1, Seed: 2})
	var resps atomic.Int64
	b.transport.SetHandler(func(env wire.Envelope) {
		if env.Kind == wire.KindPullResp {
			resps.Add(1)
		}
		b.handle(env)
	})
	b.AddPeers(a.Addr())
	b.PullNow()
	eventually(t, 20*time.Second, func() bool { return caughtUp(a, b) },
		"rejoiner not caught up by a delta past the single-frame ceiling")
	if got := resps.Load(); got < keys {
		t.Fatalf("delta of %d oversized values arrived in %d pull responses", keys, got)
	}
}

// snapshotEnvelopes renders a's live cut as the wire envelopes of one stream.
func snapshotEnvelopes(a *Replica) []wire.Envelope {
	cut, frontier := a.Store().LiveCut()
	var envs []wire.Envelope
	a.eng.StreamSnapshot(cut, frontier, nil, func(m engine.Message[string]) bool {
		envs = append(envs, envelopeFromEngine(a.Addr(), m))
		return true
	})
	return envs
}

// TestTornSnapshotStreamIsNotAdopted: a chunk stream cut off before its
// trailer — or missing a chunk in the middle — leaves the receiver's clock
// and watermark untouched, and the next pull completes the catch-up.
func TestTornSnapshotStreamIsNotAdopted(t *testing.T) {
	hub := NewHub()
	attach := func(addr string, cfg Config) *Replica {
		tr, err := hub.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		return r
	}
	rec := &recordingMetrics{}
	a := attach("a", Config{Fanout: 0, SnapshotCatchUp: 1, Seed: 1})
	b := attach("b", Config{Fanout: 0, PullAttempts: 1, Seed: 2, Metrics: rec})
	// Every key overwritten, values over half a chunk: the cut is a/2, a/4,
	// a/6, one per chunk, and none of them extends a contiguous clock.
	value := make([]byte, engine.SnapshotChunkBytes/2+1)
	for _, k := range []string{"x", "x", "y", "y", "z", "z"} {
		a.Publish(k, value)
	}
	envs := snapshotEnvelopes(a)
	if len(envs) != 3 || !envs[2].Last {
		t.Fatalf("fixture: %d chunks, want 3 ending in the trailer", len(envs))
	}
	untouched := func(when string) {
		t.Helper()
		if c, wm := b.Store().Clock(), b.Store().CompactedThrough(); len(c) != 0 || len(wm) != 0 {
			t.Fatalf("%s: clock %v, watermark %v; want both untouched", when, c, wm)
		}
		if n := rec.observed()[MetricSnapshotCatchups]; n != 0 {
			t.Fatalf("%s: %v catch-ups counted", when, n)
		}
	}

	b.handle(envs[0])
	b.handle(envs[1])
	untouched("stream cut off before its trailer")

	again := snapshotEnvelopes(a)
	b.handle(again[0])
	b.handle(again[2])
	untouched("trailer after a lost chunk")

	b.AddPeers("a")
	b.PullNow() // request, stream and adoption each cross a sender goroutine
	eventually(t, 10*time.Second, func() bool {
		return caughtUp(a, b) && rec.observed()[MetricSnapshotCatchups] >= 1
	}, "next pull did not complete the catch-up")
	if n := rec.observed()[MetricSnapshotCatchups]; n != 1 {
		t.Fatalf("%v catch-ups counted, want 1", n)
	}
}

// failingBatchTransport accepts frame batches until its budget runs out, then
// fails every send — a link that dies in the middle of a stream.
type failingBatchTransport struct {
	budget int
	kinds  []wire.Kind
}

func (f *failingBatchTransport) Addr() string                     { return "sender" }
func (f *failingBatchTransport) SetHandler(Handler)               {}
func (f *failingBatchTransport) Close() error                     { return nil }
func (f *failingBatchTransport) Send(string, wire.Envelope) error { return errors.New("unused") }
func (f *failingBatchTransport) SendFrames(_ string, frames []*wire.Frame) error {
	if f.budget == 0 {
		return errors.New("link down")
	}
	f.budget--
	for _, fr := range frames {
		env, err := wire.DecodeBinary(fr.Bytes()[4:])
		if err != nil {
			return err
		}
		f.kinds = append(f.kinds, env.Kind)
	}
	return nil
}

// TestSnapshotStreamAbortsOnSendError: the sender stops a stream at the first
// chunk the transport refuses — it never sends a trailer behind a hole it
// knows of — and a stream that did not finish is not counted as served.
func TestSnapshotStreamAbortsOnSendError(t *testing.T) {
	rec := &recordingMetrics{}
	tr := &failingBatchTransport{budget: 2}
	r, err := NewReplica(Config{Fanout: 0, SnapshotCatchUp: 1, Seed: 1, Metrics: rec}, tr)
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, engine.SnapshotChunkBytes/2+1)
	for _, k := range []string{"p", "p", "q", "q", "r", "r", "s", "s"} {
		r.Publish(k, value)
	}
	sender := newPeerSender(r, "rejoiner")
	// Deposits are engine sends: they run under the engine lock.
	r.mu.Lock()
	sender.deposit(engine.Message[string]{Kind: engine.KindPullResp, Clock: version.NewClock()})
	r.mu.Unlock()
	sender.deliver()
	if len(tr.kinds) != 2 || tr.kinds[0] != wire.KindSnapshot || tr.kinds[1] != wire.KindSnapshot {
		t.Fatalf("transport saw %v; want the two chunks before the failure and nothing after", tr.kinds)
	}
	o := rec.observed()
	if o[MetricSnapshotServed] != 0 || o[MetricSendFailed] != 1 {
		t.Fatalf("served %v, send failures %v; want an unserved stream that failed once",
			o[MetricSnapshotServed], o[MetricSendFailed])
	}
}
