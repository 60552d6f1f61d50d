package live

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// runTransport starts a TCP transport whose batch handler reports each run
// as the sequence numbers it carried, checking every push's RF on the way:
// the decoder reuses its containers, so a run's lists must have been copied.
func runTransport(t *testing.T, events chan<- string) *TCPTransport {
	t.Helper()
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.SetHandler(func(env wire.Envelope) { events <- env.Kind.String() })
	tr.SetBatchHandler(func(envs []wire.Envelope) {
		var seqs []uint64
		for _, env := range envs {
			if want := fmt.Sprintf("peer-%d", env.Update.Seq); len(env.RF) != 2 || env.RF[0] != want {
				t.Errorf("push %d carries RF %v, want [%s common]", env.Update.Seq, env.RF, want)
			}
			seqs = append(seqs, env.Update.Seq)
		}
		events <- fmt.Sprint(seqs)
	})
	return tr
}

// pushFrame appends the frame of push seq to stream.
func pushFrame(t *testing.T, stream []byte, seq uint64) []byte {
	t.Helper()
	out, err := wire.AppendFrame(stream, &wire.Envelope{
		Kind: wire.KindPush, From: "raw",
		Update: wire.Update{Origin: "o", Seq: seq, Key: "k", Value: []byte("v")},
		RF:     []string{fmt.Sprintf("peer-%d", seq), "common"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// nextEvent waits for the next handler event.
func nextEvent(t *testing.T, events <-chan string) string {
	t.Helper()
	select {
	case ev := <-events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
		return ""
	}
}

// TestTCPRunStopsAtPartialFrame: a run never waits for a frame that has not
// fully arrived — three complete pushes are delivered while the fourth is
// still half-written.
func TestTCPRunStopsAtPartialFrame(t *testing.T) {
	events := make(chan string, 8)
	tr := runTransport(t, events)
	raw, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var stream []byte
	for seq := uint64(1); seq <= 3; seq++ {
		stream = pushFrame(t, stream, seq)
	}
	complete := len(stream)
	stream = pushFrame(t, stream, 4)
	half := complete + (len(stream)-complete)/2
	if _, err := raw.Write(stream[:half]); err != nil {
		t.Fatal(err)
	}
	// The three may come as one run or several; the third ends the last.
	for got := ""; !strings.HasSuffix(got, " 3]") && got != "[3]"; {
		got = nextEvent(t, events)
	}
	if _, err := raw.Write(stream[half:]); err != nil {
		t.Fatal(err)
	}
	if got := nextEvent(t, events); got != "[4]" {
		t.Fatalf("after the rest of the fourth frame: %s, want [4]", got)
	}
}

// TestTCPRunPreservesOrder: a non-push ends the run and is handled after it.
func TestTCPRunPreservesOrder(t *testing.T) {
	events := make(chan string, 8)
	tr := runTransport(t, events)
	raw, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	stream := pushFrame(t, nil, 1)
	stream = pushFrame(t, stream, 2)
	stream, err = wire.AppendFrame(stream, &wire.Envelope{
		Kind: wire.KindAck, From: "raw", UpdateRef: store.Ref{Origin: "o", Seq: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream = pushFrame(t, stream, 3)
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	var got []string
	for len(got) < 3 {
		got = append(got, nextEvent(t, events))
	}
	if want := fmt.Sprint([]string{"[1 2]", wire.KindAck.String(), "[3]"}); fmt.Sprint(got) != want {
		t.Fatalf("deliveries %v, want %s", got, want)
	}
}

// TestPushRunLoggedBeforeEngine: every record of a run is in the WAL before
// the engine handles any push of it — by the run's first OnApply,
// wal.appends covers the whole run.
func TestPushRunLoggedBeforeEngine(t *testing.T) {
	metrics := &recordingMetrics{}
	tr, err := NewHub().Attach("logged")
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig()
	cfg.Seed = 3
	cfg.Metrics = metrics
	cfg.WAL = openWAL(t, t.TempDir(), wal.Options{Metrics: metrics})
	t.Cleanup(func() { cfg.WAL.Close() })
	firstApply := -1.0
	cfg.Hooks.OnApply = func(store.Update, store.ApplyResult, Source, int) {
		if firstApply < 0 {
			firstApply = metrics.observed()[wal.MetricAppends]
		}
	}
	r, err := NewReplica(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	w := testWriter(t, "origin")
	var run []wire.Envelope
	for i := 0; i < 3; i++ {
		u, _ := w.PutObserved(fmt.Sprintf("k%d", i), []byte("v"))
		run = append(run, wire.Envelope{Kind: wire.KindPush, From: "peer", Update: wire.FromStore(u)})
	}
	r.ingestPushes(run)
	if firstApply != 3 {
		t.Fatalf("%s = %v at the run's first OnApply, want 3", wal.MetricAppends, firstApply)
	}
	if got := metrics.observed()[MetricPushReceived]; got != 3 {
		t.Fatalf("%s = %v, want 3", MetricPushReceived, got)
	}
}
