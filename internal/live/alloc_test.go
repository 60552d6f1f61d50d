package live

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// frameSink is a FrameBatchSender that counts the frames handed to it and
// delivers nothing.
type frameSink struct{ frames atomic.Int64 }

func (s *frameSink) Addr() string                     { return "sink" }
func (s *frameSink) Send(string, wire.Envelope) error { s.frames.Add(1); return nil }
func (s *frameSink) SetHandler(Handler)               {}
func (s *frameSink) Close() error                     { return nil }
func (s *frameSink) SendFrames(_ string, fs []*wire.Frame) error {
	s.frames.Add(int64(len(fs)))
	return nil
}

// TestFramedPushFanoutCopiesNoValue publishes a 16 KiB value to four peers
// over a frame transport: each sender encodes the stored value straight
// into its frame, so a publish allocates the store's one copy of the value
// and no copy per destination.
func TestFramedPushFanoutCopiesNoValue(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	sink := &frameSink{}
	r, err := NewReplica(Config{Fanout: 4, Seed: 1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.AddPeers("p1", "p2", "p3", "p4")
	value := bytes.Repeat([]byte("v"), 16<<10)
	publish := func() {
		want := sink.frames.Load() + 4
		if _, err := r.Publish("k", value); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); sink.frames.Load() < want; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames sent", sink.frames.Load(), want)
			}
		}
	}
	for i := 0; i < 8; i++ {
		publish() // spawn the senders, grow their scratch
	}
	const n = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		publish()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 2*uint64(len(value)) {
		t.Fatalf("a publish to 4 peers allocates %d bytes for a %d-byte value, want at most twice the value", per, len(value))
	}
}

// TestHubReceiverOwnsItsValues hands a hub peer a push and a pull response
// and lets its handler overwrite every value it received: the sender's
// store, whose values the sent envelopes alias, must not change.
func TestHubReceiverOwnsItsValues(t *testing.T) {
	hub := NewHub()
	tr, err := hub.Attach("sender")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Config{Fanout: 1, Seed: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	peer, err := hub.Attach("peer")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan wire.Kind, 8)
	peer.SetHandler(func(env wire.Envelope) {
		clear(env.Update.Value)
		for _, u := range env.Updates {
			clear(u.Value)
		}
		got <- env.Kind
	})
	await := func(kind wire.Kind) {
		t.Helper()
		for {
			select {
			case k := <-got:
				if k == kind {
					return
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("no %v reached the peer", kind)
			}
		}
	}
	r.AddPeers("peer")
	for i := 0; i < 3; i++ {
		if _, err := r.Publish(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
		await(wire.KindPush)
	}
	if err := peer.Send("sender", wire.Envelope{Kind: wire.KindPullReq, From: "peer", Clock: version.Clock{}}); err != nil {
		t.Fatal(err)
	}
	await(wire.KindPullResp)
	for _, u := range r.Store().MissingFor(nil) {
		if string(u.Value) != "value" {
			t.Fatalf("the receiver's writes reached the sender's log: %s = %q", u.Key, u.Value)
		}
	}
}

// TestIngestRunAllocatesNothingPerPush ingests a 256-push run over a WAL a
// second time: every push is now a store duplicate, which neither the store,
// the WAL nor the engine allocates for, so the run's update, outcome and
// WAL-record lists must come from reused scratch.
func TestIngestRunAllocatesNothingPerPush(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	l := openWAL(t, t.TempDir(), wal.Options{})
	t.Cleanup(func() { l.Close() })
	tr, err := NewHub().Attach("self")
	if err != nil {
		t.Fatal(err)
	}
	// Fanout 0: the first ingest forwards nothing, so no sender goroutine
	// allocates while the second is measured.
	r, err := NewReplica(Config{Seed: 1, WAL: l}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	w := testWriter(t, "origin")
	run := make([]wire.Envelope, maxIngestRun)
	for i := range run {
		u, _ := w.PutObserved(fmt.Sprintf("k%d", i), []byte("value"))
		run[i] = wire.Envelope{Kind: wire.KindPush, From: "peer", Update: wire.FromStore(u)}
	}
	r.ingestPushes(run)
	if n := testing.AllocsPerRun(50, func() { r.ingestPushes(run) }); n != 0 {
		t.Fatalf("a run of %d duplicate pushes allocates %v times, want 0", len(run), n)
	}
}
