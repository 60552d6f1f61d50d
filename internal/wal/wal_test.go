package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// testUpdate builds a deterministic update; i seeds every field so records
// are distinguishable after a replay.
func testUpdate(i int) store.Update {
	var id version.ID
	id[0] = byte(i)
	id[1] = byte(i >> 8)
	return store.Update{
		Origin:  fmt.Sprintf("origin-%d", i%3),
		Seq:     uint64(i + 1),
		Key:     fmt.Sprintf("key-%d", i),
		Value:   []byte(fmt.Sprintf("value-%d", i)),
		Delete:  i%7 == 0,
		Version: version.History{id},
		Stamp:   time.Unix(0, int64(1000+i)),
	}
}

// mustOpen opens a log and fails the test on error.
func mustOpen(t *testing.T, o Options) *Log {
	t.Helper()
	l, err := Open(o)
	if err != nil {
		t.Fatalf("Open(%+v): %v", o, err)
	}
	return l
}

// appendN appends n test updates starting at base.
func appendN(t *testing.T, l *Log, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := l.Append(testUpdate(base + i)); err != nil {
			t.Fatalf("Append(%d): %v", base+i, err)
		}
	}
}

// replayAll collects every replayed record.
func replayAll(t *testing.T, l *Log) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	st, err := l.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	const n = 25
	appendN(t, l, 0, n)
	fr := version.Clock{"origin-0": 9, "origin-1": 4}
	if err := l.AppendFrontier(fr); err != nil {
		t.Fatalf("AppendFrontier: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l2.Close()
	recs, st := replayAll(t, l2)
	if len(recs) != n+1 || st.Records != n+1 || st.Skipped != 0 {
		t.Fatalf("replayed %d records (stats %+v), want %d", len(recs), st, n+1)
	}
	for i := 0; i < n; i++ {
		if recs[i].Kind != RecordUpdate {
			t.Fatalf("record %d kind = %v, want update", i, recs[i].Kind)
		}
		if got, want := recs[i].Update, testUpdate(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	last := recs[n]
	if last.Kind != RecordFrontier || !reflect.DeepEqual(last.Frontier, fr) {
		t.Fatalf("frontier record = %+v, want clock %v", last, fr)
	}
	if st.TruncatedBytes != 0 {
		t.Fatalf("replay stats = %+v, want %d clean records", st, n+1)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	const n = 50
	appendN(t, l, 0, n)
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("Segments() = %d, want several at 256-byte rotation", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l2.Close()
	recs, _ := replayAll(t, l2)
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.Update, testUpdate(i)) {
			t.Fatalf("record %d out of order after rotation", i)
		}
	}
}

func TestCheckpointPrunesAndBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l, 0, 40)
	image := []store.Update{testUpdate(3), testUpdate(7), testUpdate(39)}
	frontier := version.Clock{"origin-0": 2}
	pruned, err := l.Checkpoint(func(w io.Writer) error {
		return WriteCheckpoint(w, image, frontier)
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if pruned < 2 {
		t.Fatalf("Checkpoint pruned %d segments, want several", pruned)
	}
	appendN(t, l, 40, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(l.CheckpointPath())
	if err != nil || !bytes.HasPrefix(raw, segmentHeader()) {
		t.Fatalf("checkpoint does not start with the segment header: %q, %v", raw[:min(len(raw), headerSize)], err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l2.Close()
	recs, st := replayAll(t, l2)
	if len(recs) != len(image)+1+5 || st.Records != len(recs) {
		t.Fatalf("replayed %d records (%+v), want the checkpoint's %d, its frontier, then the 5 post-checkpoint ones",
			len(recs), st, len(image))
	}
	for i, u := range image {
		if recs[i].Kind != RecordUpdate || !reflect.DeepEqual(recs[i].Update, u) {
			t.Fatalf("checkpoint record %d = %+v, want %+v", i, recs[i], u)
		}
	}
	if f := recs[len(image)]; f.Kind != RecordFrontier || f.Frontier.Compare(frontier) != version.Equal {
		t.Fatalf("checkpoint frontier record = %+v, want %v", f, frontier)
	}
	for i, r := range recs[len(image)+1:] {
		if !reflect.DeepEqual(r.Update, testUpdate(40+i)) {
			t.Fatalf("post-checkpoint record %d = %+v", i, r.Update)
		}
	}
}

// TestCheckpointReplayMatchesSnapshotRestore: replaying a checkpoint of a
// store with overwrites, a tombstone, two concurrent branches and a
// compacted log rebuilds what restoring its gob snapshot rebuilds, down to
// the bytes of the two stores' own snapshots.
func TestCheckpointReplayMatchesSnapshotRestore(t *testing.T) {
	src := store.NewSharded(4)
	a, err := store.NewWriter("a", src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.NewWriter("b", store.NewSharded(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a.Put(fmt.Sprintf("k%d", i%5), []byte{byte(i)})
	}
	a.Delete("k1")
	src.Apply(b.Put("k2", []byte("concurrent")))
	if src.CompactLog(src.Clock()) == 0 || src.BranchCount("k2") != 2 {
		t.Fatalf("source not compacted or not branched: %d branches", src.BranchCount("k2"))
	}

	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := store.NewSharded(2)
	if err := restored.RestoreSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	if _, err := l.Checkpoint(func(w io.Writer) error {
		us, compacted := src.LogImage()
		return WriteCheckpoint(w, us, compacted)
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	replayed := store.NewSharded(2)
	recs, _ := replayAll(t, l)
	for _, r := range recs {
		if r.Kind == RecordFrontier {
			replayed.AdoptFrontier(r.Frontier)
		} else {
			replayed.Apply(r.Update)
		}
	}

	var want, got bytes.Buffer
	if err := restored.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := replayed.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || !replayed.Equal(restored) ||
		replayed.Clock().Compare(restored.Clock()) != version.Equal || replayed.BranchCount("k2") != 2 {
		t.Fatalf("replayed checkpoint differs from the restored snapshot: clock %v vs %v, compacted %v vs %v, %d vs %d updates",
			replayed.Clock(), restored.Clock(), replayed.CompactedThrough(), restored.CompactedThrough(),
			replayed.UpdateCount(), restored.UpdateCount())
	}
}

// countingMetrics is a test metrics sink.
type countingMetrics struct {
	mu sync.Mutex
	m  map[string]float64
}

func (c *countingMetrics) Inc(name string) { c.Add(name, 1) }
func (c *countingMetrics) Add(name string, delta float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]float64{}
	}
	c.m[name] += delta
}
func (c *countingMetrics) get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	cm := &countingMetrics{}
	l := mustOpen(t, Options{Dir: dir, Policy: SyncAlways, Metrics: cm})
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(testUpdate(w*each + i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	appends := cm.get(MetricAppends)
	fsyncs := cm.get(MetricFsyncs)
	if appends != workers*each {
		t.Fatalf("appends counter = %v, want %d", appends, workers*each)
	}
	if fsyncs < 1 || fsyncs > appends+1 {
		t.Fatalf("fsyncs = %v with %v appends; group commit accounting is off", fsyncs, appends)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	recs, _ := replayAll(t, l2)
	if len(recs) != workers*each {
		t.Fatalf("recovered %d records, want %d", len(recs), workers*each)
	}
}

func TestSyncIntervalPolicyFlushes(t *testing.T) {
	dir := t.TempDir()
	cm := &countingMetrics{}
	l := mustOpen(t, Options{Dir: dir, Policy: SyncInterval, Interval: time.Millisecond, Metrics: cm})
	appendN(t, l, 0, 10)
	deadline := time.Now().Add(2 * time.Second)
	for cm.get(MetricFsyncs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cm.get(MetricFsyncs) == 0 {
		t.Fatalf("interval policy never fsynced")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Policy: SyncNever})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(testUpdate(0)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestReplayHorizonExcludesPostOpenAppends(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l2.Close()
	appendN(t, l2, 10, 10) // live traffic racing recovery
	recs, _ := replayAll(t, l2)
	if len(recs) != 10 {
		t.Fatalf("replay visited %d records, want only the 10 present at Open", len(recs))
	}
}

// TestRestartWithoutWritesAddsNoSegment: a log opened and closed without an
// append leaves the segment files as they were, however often it restarts,
// on an empty directory and on one holding records.
func TestRestartWithoutWritesAddsNoSegment(t *testing.T) {
	dir := t.TempDir()
	restarts := func(want int) {
		t.Helper()
		for i := 0; i < 70; i++ {
			if err := mustOpen(t, Options{Dir: dir}).Close(); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != want {
			t.Fatalf("%d segments after 70 restarts without writes, want %d", len(segs), want)
		}
	}
	restarts(0)
	l := mustOpen(t, Options{Dir: dir})
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	restarts(1)
}

// TestNoActiveSegmentYet: Sync, Checkpoint and Close work on a log whose
// active segment does not exist yet, after Open and after a checkpoint's
// seal, under a policy that fsyncs and one that does not.
func TestNoActiveSegmentYet(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		dir := t.TempDir()
		l := mustOpen(t, Options{Dir: dir, Policy: policy})
		appendN(t, l, 0, 3)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = mustOpen(t, Options{Dir: dir, Policy: policy})
		if err := l.Sync(); err != nil {
			t.Fatalf("%v: Sync before any append: %v", policy, err)
		}
		emptyCheckpoint := func(w io.Writer) error { return WriteCheckpoint(w, nil, nil) }
		if n, err := l.Checkpoint(emptyCheckpoint); err != nil || n != 1 {
			t.Fatalf("%v: Checkpoint before any append pruned %d, %v; want 1", policy, n, err)
		}
		appendN(t, l, 3, 2)
		if _, err := l.Checkpoint(emptyCheckpoint); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("%v: Sync after a checkpoint sealed the last write: %v", policy, err)
		}
		if segs, err := listSegments(dir); err != nil || len(segs) != 0 || l.Segments() != 0 || l.Size() != 0 {
			t.Fatalf("%v: after the checkpoints %d segments on disk (%v), Segments() %d, Size() %d; want none",
				policy, len(segs), err, l.Segments(), l.Size())
		}
		appendN(t, l, 5, 1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = mustOpen(t, Options{Dir: dir, Policy: policy})
		recs, _ := replayAll(t, l)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].Kind != RecordFrontier || recs[1].Update.Ref() != testUpdate(5).Ref() {
			t.Fatalf("%v: replayed %d records, want the empty checkpoint's frontier and the one appended after it", policy, len(recs))
		}
	}
}

func TestSizeShrinksAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l.Close()
	appendN(t, l, 0, 40)
	before := l.Size()
	if _, err := l.Checkpoint(func(w io.Writer) error { return nil }); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := l.Size()
	if after >= before {
		t.Fatalf("Size() %d -> %d across checkpoint; pruning did not shrink the log", before, after)
	}
	// On-disk segment count must match the bookkeeping.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) != l.Segments() {
		t.Fatalf("on disk %d segments, bookkeeping says %d", len(segs), l.Segments())
	}
}

func TestWriteFileAtomicReplacesContent(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/state.bin"
	for i, content := range []string{"first", "second-longer-content"} {
		err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatalf("WriteFileAtomic #%d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("after write #%d: %q, %v", i, got, err)
		}
	}
	// A failed write must leave the previous content and no temp litter.
	err := WriteFileAtomic(path, func(w io.Writer) error {
		return fmt.Errorf("synthetic failure")
	})
	if err == nil {
		t.Fatalf("WriteFileAtomic swallowed the writer error")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second-longer-content" {
		t.Fatalf("failed write clobbered the file: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", 0, false},
		{"", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("SyncPolicy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
}
