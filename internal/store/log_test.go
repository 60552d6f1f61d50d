package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/p2pgossip/update/internal/version"
)

// TestRecordGrowsGeometrically pins the log's growth policy: recording 65,536
// in-order updates of one origin — a WAL replay or a catch-up — allocates at
// most 1.1 times the final log's bytes. The log grows by whole pages and never
// copies a logged entry; a log that doubles one slice allocates about twice
// its final size, and append's 1.25× growth about 5.7 times.
func TestRecordGrowsGeometrically(t *testing.T) {
	const n = 1 << 16
	updates := make([]Update, n)
	for i := range updates {
		updates[i] = Update{Origin: "origin", Seq: uint64(i + 1), Key: "k"}
	}
	l := newOriginLog()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range updates {
		l.record(u)
	}
	runtime.ReadMemStats(&after)
	if got := l.clock.Get("origin"); got != n {
		t.Fatalf("clock = %d after %d in-order records", got, n)
	}
	final := float64(n * unsafe.Sizeof(Update{}))
	if ratio := float64(after.TotalAlloc-before.TotalAlloc) / final; ratio > 1.1 {
		t.Fatalf("recording %d updates allocated %.2f× the final log's %.0f bytes, want at most 1.1×", n, ratio, final)
	}
}

// checkLog fails unless origin's log holds exactly want, in order, with every
// page but the last full and no page empty.
func checkLog(t *testing.T, l *originLog, origin string, want []uint64) {
	t.Helper()
	g := l.log[origin]
	if g.len() != len(want) {
		t.Fatalf("log holds %d entries, want %d", g.len(), len(want))
	}
	for i, seq := range want {
		if got := g.at(i).Seq; got != seq {
			t.Fatalf("entry %d has seq %d, want %d", i, got, seq)
		}
	}
	for p := 0; p < g.pages(); p++ {
		if n := len(g.page(p)); n == 0 || p < g.pages()-1 && n != logPage {
			t.Fatalf("page %d of %d holds %d entries", p, g.pages(), n)
		}
	}
	if pages := (len(want) + logPage - 1) / logPage; g.pages() != pages {
		t.Fatalf("%d entries on %d pages, want %d", len(want), g.pages(), pages)
	}
}

func seqRange(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// TestLogOutOfOrderAcrossPageEdge fills holes that sit on both sides of a page
// edge, so each insert shifts entries from one page into the next, and
// checks the order and the contiguous clock after every step.
func TestLogOutOfOrderAcrossPageEdge(t *testing.T) {
	const n = 3*logPage + 10
	holes := []uint64{logPage, logPage + 1, 2 * logPage, 1, n}
	missing := make(map[uint64]bool)
	for _, h := range holes {
		missing[h] = true
	}
	l := newOriginLog()
	for s := uint64(1); s <= n; s++ {
		if !missing[s] {
			l.record(Update{Origin: "o", Seq: s})
		}
	}
	if got := l.clock.Get("o"); got != 0 {
		t.Fatalf("clock = %d with seq 1 missing", got)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(holes), func(i, j int) { holes[i], holes[j] = holes[j], holes[i] })
	for _, h := range holes {
		l.record(Update{Origin: "o", Seq: h})
		delete(missing, h)
		var want []uint64
		for s := uint64(1); s <= n; s++ {
			if !missing[s] {
				want = append(want, s)
			}
		}
		checkLog(t, &l, "o", want)
		clock := uint64(0)
		for !missing[clock+1] && clock < n {
			clock++
		}
		if got := l.clock.Get("o"); got != clock {
			t.Fatalf("after filling %d: clock = %d, want %d", h, got, clock)
		}
		if !l.have("o", h) {
			t.Fatalf("have(%d) = false after recording it", h)
		}
	}
}

// TestLogCompactionEmptiesPages drops most of a four-page log, keeping a
// scatter of entries below the watermark, and checks that the survivors
// close ranks on the fewest pages and the emptied pages are released.
func TestLogCompactionEmptiesPages(t *testing.T) {
	const n = 4*logPage + 3
	l := newOriginLog()
	for s := uint64(1); s <= n; s++ {
		l.record(Update{Origin: "o", Seq: s})
	}
	through := uint64(3*logPage + 100)
	retain := func(u Update) bool { return u.Seq%100 == 0 }
	dropped := l.compact(version.Clock{"o": through}, retain)
	var want []uint64
	for s := uint64(1); s <= n; s++ {
		if s > through || retain(Update{Seq: s}) {
			want = append(want, s)
		}
	}
	if dropped != n-len(want) {
		t.Fatalf("dropped %d, want %d", dropped, n-len(want))
	}
	checkLog(t, &l, "o", want)
	if g := l.log["o"]; len(g.more) < cap(g.more) {
		for _, pg := range g.more[len(g.more):cap(g.more)] {
			if pg != nil {
				t.Fatal("a released page is still referenced")
			}
		}
	}
	for s := uint64(1); s <= through; s++ {
		if !l.have("o", s) {
			t.Fatalf("have(%d) = false below the watermark", s)
		}
	}
	// A second pass that drops everything left releases every page.
	if got := l.compact(version.Clock{"o": n}, func(Update) bool { return false }); got != len(want) {
		t.Fatalf("second pass dropped %d, want %d", got, len(want))
	}
	checkLog(t, &l, "o", nil)
	if g := l.log["o"]; g.first != nil || g.more != nil {
		t.Fatal("an emptied log still holds pages")
	}
}

// pagedStore applies updates 1..n of one writer, round-robin over ten keys,
// except the skipped sequences, and returns the store and every update made.
func pagedStore(t *testing.T, n int, skip map[uint64]bool) (*Sharded, []Update) {
	t.Helper()
	src := NewSharded(1)
	w, err := NewWriter("o", src, func() time.Time { return time.Unix(1, 0) }, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	st := NewSharded(4)
	var all []Update
	for i := 0; i < n; i++ {
		u := w.Put(fmt.Sprintf("k%d", i%10), []byte("v"))
		all = append(all, u)
		if !skip[u.Seq] {
			st.Apply(u)
		}
	}
	return st, all
}

func seqsOf(us []Update) []uint64 {
	out := make([]uint64, len(us))
	for i, u := range us {
		out[i] = u.Seq
	}
	return out
}

// TestMissingForAndLiveCutStartMidPage cuts a three-page log at sequences
// inside a page: a pull delta from mid-page, and a live cut whose shipped
// run starts at a hole mid-page (everything at or below the clock is
// overwritten history).
func TestMissingForAndLiveCutStartMidPage(t *testing.T) {
	const n, hole = 2*logPage + 100, logPage + 45
	st, _ := pagedStore(t, n, map[uint64]bool{hole: true})
	for _, from := range []uint64{0, 100, logPage - 1, logPage, logPage + 44, 2*logPage + 1, n} {
		want := append(seqRange(from+1, hole-1), seqRange(max(from+1, hole+1), n)...)
		if from >= hole {
			want = seqRange(from+1, n)
		}
		if got := seqsOf(st.MissingFor(version.Clock{"o": from})); !slices.Equal(got, want) {
			t.Fatalf("MissingFor(o:%d) = %v, want %v", from, got, want)
		}
	}
	cut, frontier := st.LiveCut()
	if got := frontier.Get("o"); got != hole-1 {
		t.Fatalf("live cut frontier = %d, want %d", got, hole-1)
	}
	if got, want := seqsOf(cut), seqRange(hole+1, n); !slices.Equal(got, want) {
		t.Fatalf("live cut = %v, want %v", got, want)
	}
}

// TestOneEntryLog walks one update through every log operation: a log of
// one entry is one page of one slot, and compacting it away releases it.
func TestOneEntryLog(t *testing.T) {
	st, all := pagedStore(t, 1, nil)
	u := all[0]
	l := &st.logFor("o").data
	checkLog(t, l, "o", []uint64{1})
	if cap(l.log["o"].first) > 8 {
		t.Fatalf("a one-entry log holds a %d-entry page", cap(l.log["o"].first))
	}
	if !st.Seen(u.Ref()) || st.Apply(u) != Duplicate {
		t.Fatal("the logged update is not a duplicate of itself")
	}
	if got := seqsOf(st.MissingFor(nil)); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("MissingFor(nil) = %v", got)
	}
	if got := st.MissingFor(version.Clock{"o": 1}); len(got) != 0 {
		t.Fatalf("MissingFor(o:1) = %v, want nothing", got)
	}
	if cut, _ := st.LiveCut(); !slices.Equal(seqsOf(cut), []uint64{1}) {
		t.Fatalf("live cut = %v", seqsOf(cut))
	}
	if got := l.compact(version.Clock{"o": 1}, func(Update) bool { return false }); got != 1 {
		t.Fatalf("compaction dropped %d, want 1", got)
	}
	checkLog(t, l, "o", nil)
	if !st.Seen(u.Ref()) || st.UpdateCount() != 0 {
		t.Fatal("compacted update not covered by the watermark")
	}
	if _, ok := st.DeltaFor(nil); ok {
		t.Fatal("a delta across the compacted entry reported exact")
	}
}

// TestSeqLogSearch checks search against a linear scan on an empty log and
// on a gapped log of several pages: mid-log sequences, present and absent,
// take the binary search, and the tail, one past it and far past it take
// the constant-time answer.
func TestSeqLogSearch(t *testing.T) {
	var g seqLog
	if got := g.search(1); got != 0 {
		t.Fatalf("search(1) on an empty log = %d, want 0", got)
	}
	for s := uint64(2); s <= 2*(2*logPage+7); s += 2 {
		g.insert(g.len(), Update{Seq: s})
	}
	tail := g.at(g.len() - 1).Seq
	for _, seq := range []uint64{0, 1, 2, 3, logPage, 2*logPage + 1, tail - 1, tail, tail + 1, tail + 1000} {
		want := 0
		for want < g.len() && g.at(want).Seq < seq {
			want++
		}
		if got := g.search(seq); got != want {
			t.Fatalf("search(%d) = %d, want %d", seq, got, want)
		}
	}
}
