package wal

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// replayLog writes a log of 1,002 records over many 4 KiB segments — more
// than replayBatches batches — with one frontier record and one
// checksum-valid record that does not decode, and returns the records in
// log order, the undecodable one as the zero Record.
func replayLog(t *testing.T, dir string) []Record {
	t.Helper()
	o := Options{Dir: dir, Policy: SyncNever, SegmentBytes: 4 << 10}
	var want []Record
	appendUpdates := func(l *Log, base, n int) {
		appendN(t, l, base, n)
		for i := base; i < base+n; i++ {
			want = append(want, Record{Kind: RecordUpdate, Update: testUpdate(i)})
		}
	}
	l := mustOpen(t, o)
	appendUpdates(l, 0, 500)
	fr := version.Clock{"origin-0": 7, "origin-2": 3}
	if err := l.AppendFrontier(fr); err != nil {
		t.Fatalf("AppendFrontier: %v", err)
	}
	want = append(want, Record{Kind: RecordFrontier, Frontier: fr})
	appendUpdates(l, 500, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte{byte(RecordUpdate)}, wire.AppendStoreUpdate(nil, testUpdate(9))...)
	appendRaw(t, segmentPath(dir, segs[len(segs)-1].idx), frameRecord(append(body, 0xde, 0xad)))
	want = append(want, Record{})
	l = mustOpen(t, o)
	appendUpdates(l, 600, 400)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(segs) < 4 {
		t.Fatalf("log spans %d segments, want several", len(segs))
	}
	return want
}

// delivered drops the skipped records from want: what Replay hands fn.
func delivered(want []Record) []Record {
	var out []Record
	for _, r := range want {
		if r.Kind != 0 {
			out = append(out, r)
		}
	}
	return out
}

// sameRecords fails unless got matches want record for record. Stamps are
// compared with Equal: the log drops the monotonic reading.
func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Update.Stamp.Equal(w.Update.Stamp) {
			t.Fatalf("record %d stamp = %v, want %v", i, g.Update.Stamp, w.Update.Stamp)
		}
		g.Update.Stamp, w.Update.Stamp = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

// waitGoroutines fails unless the goroutine count returns to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Replay returned, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplayDeliversInOrderAcrossBatches(t *testing.T) {
	dir := t.TempDir()
	want := replayLog(t, dir)
	cm := &countingMetrics{}
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, Metrics: cm})
	defer l.Close()
	recs, st := replayAll(t, l)
	sameRecords(t, recs, delivered(want))
	if st != (ReplayStats{Records: len(want) - 1, Skipped: 1}) {
		t.Fatalf("stats = %+v, want %d records and 1 skipped", st, len(want)-1)
	}
	if got := cm.get(MetricRecoverSkippedRecords); got != 1 {
		t.Fatalf("skipped-records counter = %v, want 1", got)
	}
}

func TestReplayStopsAtCallbackError(t *testing.T) {
	dir := t.TempDir()
	want := delivered(replayLog(t, dir))
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	stopErr := errors.New("stop here")
	// The record before the skipped one, and records on either side of a
	// batch edge, mid-log and last.
	for _, k := range []int{0, 255, 256, 600, 601, 900, len(want) - 1} {
		base := runtime.NumGoroutine()
		calls := 0
		st, err := l.Replay(func(Record) error {
			if calls++; calls == k+1 {
				return stopErr
			}
			return nil
		})
		if !errors.Is(err, stopErr) {
			t.Fatalf("k=%d: Replay error = %v, want the callback's", k, err)
		}
		skipped := 0
		if k > 600 {
			skipped = 1
		}
		if calls != k+1 || st != (ReplayStats{Records: k + 1, Skipped: skipped}) {
			t.Fatalf("k=%d: %d callbacks, stats %+v; want %d callbacks, %d skipped", k, calls, st, k+1, skipped)
		}
		waitGoroutines(t, base)
	}
}

// TestReplayReportsCorruptionAfterEarlierRecords: a record corrupted on
// disk after Open is salvaged like any other damage. The records before it
// are delivered, the rest of its segment is dropped and counted, the later
// segments are delivered, and Replay returns no error.
func TestReplayReportsCorruptionAfterEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	want := delivered(replayLog(t, dir))
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	// Corrupt the body of the 850th record on disk, past the reader's
	// head start.
	const target = 850
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	var segEnd int
	var dropped int64
	for _, seg := range segs {
		offs := recordOffsets(t, segmentPath(dir, seg.idx))
		n := len(offs) - 1
		if seen+n <= target {
			seen += n
			continue
		}
		flipByte(t, segmentPath(dir, seg.idx), offs[target-seen]+recordHeaderSize)
		segEnd, dropped = seen+n, offs[n]-offs[target-seen]
		break
	}
	base := runtime.NumGoroutine()
	var got []Record
	st, err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay over a corrupted record: %v", err)
	}
	// One record before the target is the skipped one, so on-disk record
	// i is want[i-1].
	sameRecords(t, got, append(want[:target-1:target-1], want[segEnd-1:]...))
	if st.TruncatedBytes != dropped {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, dropped)
	}
	waitGoroutines(t, base)
}
