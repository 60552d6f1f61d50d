package engine

// Benchmarks for the engine hot paths — the repo's first perf baseline for
// the protocol core now that simulator and live runtime share it. The three
// surfaces that dominate large runs: push handling (first receipts with
// carried lists, then the duplicate/merge path), pull reconciliation, and
// target sampling with the §6 ack preferences.

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// newBenchEngine builds an engine with n known peers and a discarding
// endpoint, so measurements cover the engine, not a transport.
func newBenchEngine(b testing.TB, n int, cfg Config[int]) (*Engine[int], *testEndpoint) {
	b.Helper()
	cfg.Population = n
	e, ep := newTestEngine(b, 0, cfg, nil)
	ep.discard = true
	for i := 1; i <= n; i++ {
		e.Learn(i)
	}
	return e, ep
}

// benchStamp and benchVersionID are shared by every benchmark update; the
// stores never compare versions across keys, so one id suffices and keeps
// id generation out of the measured loop.
var (
	benchStamp     = time.Unix(1_700_000_000, 0)
	benchVersionID = version.NewID(benchStamp, "writer", rand.New(rand.NewSource(1)))
)

// benchUpdate builds the i-th foreign update, each on its own key so store
// apply stays on the fresh-key fast path.
func benchUpdate(i int) store.Update {
	return store.Update{
		Origin:  "writer",
		Seq:     uint64(i + 1),
		Key:     "key-" + strconv.Itoa(i),
		Value:   []byte("value"),
		Version: version.History{benchVersionID},
		Stamp:   benchStamp,
	}
}

// benchRF builds a carried flooding list of k entries.
func benchRF(k int) []int {
	rf := make([]int, k)
	for i := range rf {
		rf[i] = i + 1
	}
	return rf
}

// BenchmarkHandlePushFirstReceipt covers first receipts that mostly push on
// (1024 known peers, fanout 10, carried lists of 0 to 512) and, as fleet=4,
// receipts whose carried list already names every known peer, which push on
// to nobody, under the adaptive and a stateless schedule.
func BenchmarkHandlePushFirstReceipt(b *testing.B) {
	for _, sched := range []struct {
		name  string
		newPF func() pf.Func
	}{
		{"adaptive", func() pf.Func { return pf.NewAdaptive(0.9) }},
		{"geometric", func() pf.Func { return pf.Geometric{Base: 0.9} }},
	} {
		for _, tc := range []struct {
			name           string
			peers, carried int
		}{
			{"carried=0", 1024, 0},
			{"carried=64", 1024, 64},
			{"carried=512", 1024, 512},
			{"fleet=4", 4, 4},
		} {
			b.Run(sched.name+"/"+tc.name, func(b *testing.B) {
				e, _ := newBenchEngine(b, tc.peers, Config[int]{
					Fanout:      10,
					PartialList: true,
					ListMax:     64,
					NewPF:       sched.newPF,
				})
				rf := benchRF(tc.carried)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					deliver(e, 1, Message[int]{
						Kind: KindPush, Update: benchUpdate(i), RF: rf, T: 2,
					})
				}
			})
		}
	}
}

// duplicatePush returns one step of the pure duplicate/merge/observe path:
// a push of an update the engine has already processed, carrying a list it
// has already merged.
func duplicatePush(tb testing.TB) func() {
	e, _ := newBenchEngine(tb, 1024, Config[int]{
		Fanout:      10,
		PartialList: true,
		NewPF:       func() pf.Func { return pf.NewAdaptive(0.9) },
	})
	u := benchUpdate(0)
	rf := benchRF(128)
	deliver(e, 1, Message[int]{Kind: KindPush, Update: u, RF: rf, T: 1})
	return func() { deliver(e, 2, Message[int]{Kind: KindPush, Update: u, RF: rf, T: 2}) }
}

func BenchmarkHandlePushDuplicate(b *testing.B) {
	step := duplicatePush(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestDuplicatePushAllocatesNothing gates what a flood mostly consists of:
// a duplicate push is absorbed without touching the heap.
func TestDuplicatePushAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(200, duplicatePush(t)); n != 0 {
		t.Fatalf("a duplicate push allocates %v times, want 0", n)
	}
}

// firstReceipts returns a step entering n distinct first receipts into e, one
// per call, each carrying rf, with the store left out: the engine's share of
// a first receipt.
func firstReceipts(e *Engine[int], n int, rf []int) func() {
	msgs := make([]Message[int], n)
	for i := range msgs {
		msgs[i] = Message[int]{Kind: KindPush, Update: benchUpdate(i), RF: rf, T: 1}
	}
	next := 0
	return func() {
		e.HandlePushApplied(1, msgs[next], Applied{Res: store.Applied, Branches: 1})
		next++
	}
}

// TestTrackAllocations pins the flooding state of a first receipt that pushes
// on, with a list of up to listMapThreshold peers, at two objects: the state
// itself, whose inline array holds the first eight, and one growth of the
// list.
func TestTrackAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	// 15 known peers, 11 of them carried: R_f = 11 + self, pushed on to the
	// other 4, is listMapThreshold peers.
	e, ep := newBenchEngine(t, listMapThreshold-1, Config[int]{Fanout: listMapThreshold, PartialList: true})
	const runs = 200
	step := firstReceipts(e, 2*stateWindow+runs+2, benchRF(listMapThreshold-5))
	// Fill both generations first, so the window maps have their buckets.
	for i := 0; i < 2*stateWindow; i++ {
		step()
	}
	if n := testing.AllocsPerRun(runs, step); n > 2 {
		t.Fatalf("a first receipt that pushes on allocates %v objects, want ≤ 2", n)
	}
	ep.discard = false
	step()
	if len(ep.sent) != 4 {
		t.Fatalf("a first receipt pushed on to %d peers, want 4", len(ep.sent))
	}
}

// TestNotPushedOnAllocatesNothing: under a stateless schedule, a first
// receipt whose carried list names every known peer is decided in the
// engine's scratch list and leaves nothing on the heap.
func TestNotPushedOnAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	e, _ := newBenchEngine(t, 4, Config[int]{
		Fanout:      4,
		PartialList: true,
		NewPF:       func() pf.Func { return pf.Geometric{Base: 0.9} },
	})
	step := firstReceipts(e, 202, benchRF(4))
	step() // the first sizes the scratch list
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("a first receipt that is not pushed on allocates %v times, want 0", n)
	}
	if got := len(e.cur) + len(e.old); got != 0 {
		t.Fatalf("%d flooding states after receipts that were not pushed on, want 0", got)
	}
}

func BenchmarkPullReconciliation(b *testing.B) {
	// A replica holding updateCount updates serves a pull request from a
	// peer missing the newest `missing` of them.
	const updateCount, missing = 512, 32
	e, _ := newBenchEngine(b, 64, Config[int]{PullAttempts: 3})
	for i := 0; i < updateCount; i++ {
		deliver(e, 1, Message[int]{Kind: KindPush, Update: benchUpdate(i), T: 1})
	}
	remote := version.NewClock()
	remote["writer"] = updateCount - missing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(e, 2, Message[int]{Kind: KindPullReq, Clock: remote})
	}
}

func BenchmarkSampleTargets(b *testing.B) {
	for _, tt := range []struct {
		name string
		acks bool
	}{
		{"plain", false},
		{"ack-preferences", true},
	} {
		b.Run(tt.name, func(b *testing.B) {
			cfg := Config[int]{Fanout: 10}
			if tt.acks {
				cfg.Acks = true
				cfg.AckTimeout = 1 << 40
				cfg.SuspectTTL = 1 << 40
			}
			e, _ := newBenchEngine(b, 1024, cfg)
			if tt.acks {
				// A quarter of the population has acked; a few suspects.
				for i := 1; i <= 256; i++ {
					deliver(e, i, Message[int]{Kind: KindAck})
				}
				for i := 900; i < 916; i++ {
					e.suspect(i, 0)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SamplePeers(10)
			}
		})
	}
}

func BenchmarkCarriedTruncation(b *testing.B) {
	e, _ := newBenchEngine(b, 1024, Config[int]{PartialList: true, ListMax: 64})
	list := benchRF(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Carried(list)
	}
}
