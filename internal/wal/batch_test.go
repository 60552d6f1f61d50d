package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// TestAppendBatchMatchesSingleAppends pins that one multi-record Append lays
// records out exactly as one Append per record does: same segments, same
// bytes, the same seal decisions — and counts records, not calls.
func TestAppendBatchMatchesSingleAppends(t *testing.T) {
	const n = 120
	us := make([]store.Update, n)
	for i := range us {
		us[i] = testUpdate(i)
	}
	single, batched := t.TempDir(), t.TempDir()
	cs, cm := &countingMetrics{}, &countingMetrics{}
	ls := mustOpen(t, Options{Dir: single, Policy: SyncNever, SegmentBytes: 512, Metrics: cs})
	appendN(t, ls, 0, n)
	lb := mustOpen(t, Options{Dir: batched, Policy: SyncNever, SegmentBytes: 512, Metrics: cm})
	if err := lb.Append(us[:7]...); err != nil {
		t.Fatal(err)
	}
	if err := lb.Append(us[7:]...); err != nil {
		t.Fatal(err)
	}
	if got := cm.get(MetricAppends); got != n {
		t.Fatalf("%s = %v after two calls, want %d records", MetricAppends, got, n)
	}
	if got, want := cm.get(MetricAppendBytes), cs.get(MetricAppendBytes); got != want {
		t.Fatalf("%s = %v batched, %v one by one", MetricAppendBytes, got, want)
	}
	if ls.Segments() != lb.Segments() || ls.Size() != lb.Size() {
		t.Fatalf("batched log: %d segments / %d bytes; one by one: %d / %d",
			lb.Segments(), lb.Size(), ls.Segments(), ls.Size())
	}
	ls.Close()
	lb.Close()
	for idx := uint64(1); idx <= uint64(ls.Segments()); idx++ {
		a, errA := os.ReadFile(segmentPath(single, idx))
		b, errB := os.ReadFile(segmentPath(batched, idx))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("segment %d differs (%v, %v)", idx, errA, errB)
		}
	}
}

// TestAppendScratchBounded: a call framing more than maxRetainedScratch does
// not leave its buffer pinned to the log.
func TestAppendScratchBounded(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Policy: SyncNever})
	defer l.Close()
	us := make([]store.Update, 20000)
	for i := range us {
		us[i] = testUpdate(i)
	}
	if err := l.Append(us...); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.scratch); c > maxRetainedScratch {
		t.Fatalf("a 20,000-record append left %d bytes of scratch, cap %d", c, maxRetainedScratch)
	}
	big := testUpdate(20000)
	big.Value = make([]byte, 2*maxRetainedScratch)
	if err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.scratch); c > maxRetainedScratch {
		t.Fatalf("one %d-byte record left %d bytes of scratch, cap %d", len(big.Value), c, maxRetainedScratch)
	}
}

// TestConcurrentAppendAcrossSeal: two goroutines append runs of 1–300
// records into 4 KiB segments, so most calls seal mid-run. Replay yields
// every record exactly once, each writer's in its own order.
func TestConcurrentAppendAcrossSeal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 4 << 10})
	const writers, perWriter = 2, 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			origin := fmt.Sprintf("writer-%d", w)
			for seq := 1; seq <= perWriter; {
				run := make([]store.Update, 0, 300)
				for k := 1 + rng.Intn(300); k > 0 && seq <= perWriter; k-- {
					run = append(run, store.Update{
						Origin: origin, Seq: uint64(seq), Key: fmt.Sprintf("k%d", seq),
						Value: []byte("v"), Version: version.History{version.ID{byte(w), byte(seq)}},
						Stamp: time.Unix(0, int64(seq)),
					})
					seq++
				}
				if err := l.Append(run...); err != nil {
					t.Errorf("%s: Append: %v", origin, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Segments() < 10 {
		t.Fatalf("%d segments: the runs did not cross seals", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 4 << 10})
	defer l2.Close()
	recs, _ := replayAll(t, l2)
	next := map[string]uint64{}
	for _, r := range recs {
		o := r.Update.Origin
		if r.Update.Seq != next[o]+1 {
			t.Fatalf("%s: replayed seq %d after %d", o, r.Update.Seq, next[o])
		}
		next[o] = r.Update.Seq
	}
	if len(recs) != writers*perWriter || len(next) != writers {
		t.Fatalf("replayed %d records from %d writers, want %d from %d", len(recs), len(next), writers*perWriter, writers)
	}
}
