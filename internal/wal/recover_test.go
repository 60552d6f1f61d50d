package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wire"
)

// buildLog writes n records into a fresh single-segment log and returns the
// segment path. The log is closed cleanly; tests then damage the file.
func buildLog(t *testing.T, dir string, n int) string {
	t.Helper()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	appendN(t, l, 0, n)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return segmentPath(dir, 1)
}

// recordOffsets parses a clean segment and returns the starting offset of
// every record (and the end offset as the final element).
func recordOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	offs := []int64{headerSize}
	off := int64(headerSize)
	for off < int64(len(data)) {
		n := binary.BigEndian.Uint32(data[off : off+4])
		off += recordHeaderSize + int64(n)
		offs = append(offs, off)
	}
	return offs
}

// truncateAt shortens the file to size bytes.
func truncateAt(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatalf("Truncate(%d): %v", size, err)
	}
}

// flipByte XORs the byte at off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

// appendRaw appends raw bytes to the file (crash garbage, duplicated
// records, hand-built frames).
func appendRaw(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// frameRecord builds a correctly framed record from a body.
func frameRecord(body []byte) []byte {
	out := make([]byte, recordHeaderSize+len(body))
	putU32(out[0:4], uint32(len(body)))
	putU32(out[4:8], crc32.Checksum(body, crcTable))
	copy(out[recordHeaderSize:], body)
	return out
}

// TestRecoverCrashPoints drives the torn-write/corruption matrix: each case
// damages a clean 5-record segment at a chosen byte and asserts how many
// records survive recovery and how many bytes it reports not replaying.
// Recovery must never error on damage, and must drop everything from the
// first bad record onward (fsync ordering means no later record was ever
// acknowledged durable).
func TestRecoverCrashPoints(t *testing.T) {
	const n = 5
	cases := []struct {
		name   string
		damage func(t *testing.T, path string, offs []int64)
		want   int                      // records recovered
		trim   func(offs []int64) int64 // TruncatedBytes reported
	}{
		{
			name:   "clean",
			damage: func(t *testing.T, path string, offs []int64) {},
			want:   n,
		},
		{
			name: "torn-record-body",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, offs[n]-3)
			},
			want: n - 1,
			trim: func(offs []int64) int64 { return offs[n] - 3 - offs[n-1] },
		},
		{
			name: "torn-record-header",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, offs[n-1]+4)
			},
			want: n - 1,
			trim: func(offs []int64) int64 { return 4 },
		},
		{
			name: "corrupt-last-crc",
			damage: func(t *testing.T, path string, offs []int64) {
				flipByte(t, path, offs[n-1]+recordHeaderSize) // first body byte
			},
			want: n - 1,
			trim: func(offs []int64) int64 { return offs[n] - offs[n-1] },
		},
		{
			name: "corrupt-mid-record",
			damage: func(t *testing.T, path string, offs []int64) {
				flipByte(t, path, offs[1]+recordHeaderSize+2)
			},
			want: 1, // records after the bad one were never acked durable
			trim: func(offs []int64) int64 { return offs[n] - offs[1] },
		},
		{
			name: "implausible-length",
			damage: func(t *testing.T, path string, offs []int64) {
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatalf("OpenFile: %v", err)
				}
				defer f.Close()
				var huge [4]byte
				binary.BigEndian.PutUint32(huge[:], 0xffffffff)
				if _, err := f.WriteAt(huge[:], offs[n-1]); err != nil {
					t.Fatalf("WriteAt: %v", err)
				}
			},
			want: n - 1,
			trim: func(offs []int64) int64 { return offs[n] - offs[n-1] },
		},
		{
			name: "garbage-tail",
			damage: func(t *testing.T, path string, offs []int64) {
				appendRaw(t, path, []byte("\x00\x00\x00\x0bnot a frame"))
			},
			want: n,
			trim: func(offs []int64) int64 { return 15 },
		},
		{
			name: "bad-segment-header",
			damage: func(t *testing.T, path string, offs []int64) {
				flipByte(t, path, 0)
			},
			want: 0,
			trim: func(offs []int64) int64 { return offs[n] },
		},
		{
			// No longer than its header, so never opened: the bad magic
			// goes unread and uncounted.
			name: "header-only-bad-magic",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, headerSize)
				flipByte(t, path, 0)
			},
			want: 0,
		},
		{
			name: "torn-segment-header",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, 3)
			},
			want: 0,
		},
		{
			name: "empty-file",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, 0)
			},
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := buildLog(t, dir, n)
			offs := recordOffsets(t, path)
			tc.damage(t, path, offs)
			var trim int64
			if tc.trim != nil {
				trim = tc.trim(offs)
			}

			cm := &countingMetrics{}
			l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, Metrics: cm})
			recs, st := replayAll(t, l)
			if len(recs) != tc.want {
				t.Fatalf("recovered %d records, want %d (stats %+v)", len(recs), tc.want, st)
			}
			for i, r := range recs {
				if !reflect.DeepEqual(r.Update, testUpdate(i)) {
					t.Fatalf("recovered record %d = %+v, want testUpdate(%d)", i, r.Update, i)
				}
			}
			if st.TruncatedBytes != trim || cm.get(MetricRecoverTruncatedBytes) != float64(trim) {
				t.Fatalf("TruncatedBytes = %d, %s = %v; want %d",
					st.TruncatedBytes, MetricRecoverTruncatedBytes, cm.get(MetricRecoverTruncatedBytes), trim)
			}
			// The log must accept appends after recovery, and a second
			// recovery must see old + new records and report the same
			// damage: recovery repairs nothing, so the damaged bytes stay
			// until a checkpoint prunes their segment.
			if err := l.Append(testUpdate(100)); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
			defer l2.Close()
			recs2, st2 := replayAll(t, l2)
			if len(recs2) != tc.want+1 || !reflect.DeepEqual(recs2[tc.want].Update, testUpdate(100)) {
				t.Fatalf("second recovery saw %d records, want %d ending in the appended one", len(recs2), tc.want+1)
			}
			if st2.TruncatedBytes != trim {
				t.Fatalf("second recovery TruncatedBytes = %d, want the first's %d", st2.TruncatedBytes, trim)
			}
		})
	}
}

// TestRecoverDuplicateRecords replays byte-identical duplicated records —
// a crash between apply and ack can legitimately log twice — and asserts
// both copies are delivered (dedup is the store's job; Apply is
// idempotent per (origin, seq)).
func TestRecoverDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	path := buildLog(t, dir, 3)
	offs := recordOffsets(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	appendRaw(t, path, data[offs[2]:offs[3]]) // duplicate the last record verbatim

	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	recs, _ := replayAll(t, l)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (duplicate included)", len(recs))
	}
	if !reflect.DeepEqual(recs[2].Update, recs[3].Update) {
		t.Fatalf("duplicate record diverged: %+v vs %+v", recs[2].Update, recs[3].Update)
	}
}

// TestRecoverUnknownKindSkipped: a checksum-valid record with an unknown
// kind (a future format, or checksum-colliding garbage) is skipped and
// counted, never delivered and never fatal.
func TestRecoverUnknownKindSkipped(t *testing.T) {
	dir := t.TempDir()
	path := buildLog(t, dir, 2)
	appendRaw(t, path, frameRecord([]byte{0x7f, 1, 2, 3}))

	cm := &countingMetrics{}
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, Metrics: cm})
	defer l.Close()
	recs, st := replayAll(t, l)
	if len(recs) != 2 || st.Skipped != 1 {
		t.Fatalf("recovered %d records, skipped %d; want 2 and 1", len(recs), st.Skipped)
	}
	if cm.get(MetricRecoverSkippedRecords) != 1 {
		t.Fatalf("skipped-records counter = %v, want 1", cm.get(MetricRecoverSkippedRecords))
	}
}

// TestRecoverUndecodableBodySkipped: checksum-valid but semantically
// broken update bodies (stray trailing bytes) are skipped, not replayed.
func TestRecoverUndecodableBodySkipped(t *testing.T) {
	dir := t.TempDir()
	path := buildLog(t, dir, 2)
	body := append([]byte{byte(RecordUpdate)}, wire.AppendStoreUpdate(nil, testUpdate(9))...)
	body = append(body, 0xde, 0xad) // stray bytes after a valid update
	appendRaw(t, path, frameRecord(body))

	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	recs, st := replayAll(t, l)
	if len(recs) != 2 || st.Skipped != 1 {
		t.Fatalf("recovered %d records, skipped %d; want 2 and 1", len(recs), st.Skipped)
	}
}

// TestRecoverEmptySegments: header-only segments anywhere in the sequence
// are valid and contribute nothing.
func TestRecoverEmptySegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	max := segs[len(segs)-1].idx
	// A sealed header-only segment (a rotation that never took appends).
	if err := os.WriteFile(segmentPath(dir, max+1), segmentHeader(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// A zero-length trailing segment, as left by a crash inside segment
	// creation before the header hit disk.
	if err := os.WriteFile(segmentPath(dir, max+2), nil, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l2, 20, 3) // new appends land past the empty segments
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l3 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l3.Close()
	recs, _ := replayAll(t, l3)
	if len(recs) != 23 {
		t.Fatalf("recovered %d records with empty segments present, want 23", len(recs))
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.Update, testUpdate(i)) {
			t.Fatalf("record %d out of order across empty segments", i)
		}
	}
}

// TestRecoverDamagedMiddleSegment: damage in a segment that is neither the
// first nor the last stops that segment only. Replay delivers the valid
// prefix, drops the rest of the damaged segment, goes on with the later
// segments, and reports exactly the dropped bytes.
func TestRecoverDamagedMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	// Corrupt the second record of the second segment.
	before := len(recordOffsets(t, segmentPath(dir, segs[0].idx))) - 1
	path := segmentPath(dir, segs[1].idx)
	offs := recordOffsets(t, path)
	flipByte(t, path, offs[1]+recordHeaderSize+1)
	lost := len(offs) - 2 // records at offs[1:len-1]

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l2.Close()
	recs, st := replayAll(t, l2)
	var want []int
	for i := 0; i < 40; i++ {
		if i <= before || i >= before+1+lost {
			want = append(want, i)
		}
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for j, i := range want {
		if !reflect.DeepEqual(recs[j].Update, testUpdate(i)) {
			t.Fatalf("record %d = %+v, want testUpdate(%d)", j, recs[j].Update, i)
		}
	}
	if got, want := st.TruncatedBytes, offs[len(offs)-1]-offs[1]; got != want {
		t.Fatalf("TruncatedBytes = %d, want %d", got, want)
	}
}

// fileDigests maps every file in dir to its size and SHA-256.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d:%x", len(data), sha256.Sum256(data))
	}
	return out
}

// TestRecoverReadOnly: Open + Replay of a log with a torn tail and a
// corrupted middle segment changes no existing file, not even to repair
// it, and adds none: a process creates its segment at its first append.
func TestRecoverReadOnly(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l, 0, 40)
	if _, err := l.Checkpoint(func(w io.Writer) error {
		return WriteCheckpoint(w, []store.Update{testUpdate(0)}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40, 40)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	mid := segmentPath(dir, segs[len(segs)/2].idx)
	flipByte(t, mid, headerSize+recordHeaderSize)
	tail := segmentPath(dir, segs[len(segs)-1].idx)
	offs := recordOffsets(t, tail)
	truncateAt(t, tail, offs[len(offs)-1]-3)

	before := fileDigests(t, dir)
	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	_, st := replayAll(t, l2)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("recovery reported no damage")
	}
	after := fileDigests(t, dir)
	for name, d := range before {
		if after[name] != d {
			t.Errorf("%s changed: %s -> %q", name, d, after[name])
		}
	}
	for name, d := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("recovery added %s (%s)", name, d)
		}
	}
}

// TestOpenSyncsInheritedSegment: opening an existing log fsyncs its newest
// segment once, which the previous process may have left in the page
// cache, unless the policy never fsyncs.
func TestOpenSyncsInheritedSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy SyncPolicy
		want   float64
	}{{SyncInterval, 1}, {SyncNever, 0}} {
		cm := &countingMetrics{}
		l := mustOpen(t, Options{Dir: dir, Policy: tc.policy, Interval: time.Hour, Metrics: cm})
		if got := cm.get(MetricFsyncs); got != tc.want {
			t.Errorf("%v: %s = %v after Open, want %v", tc.policy, MetricFsyncs, got, tc.want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFsyncsPerPolicy counts fsyncs through one forced rotation and Close.
// SyncNever fsyncs only at Close: not on append, not at the seal, and not
// the new segment's directory entry. SyncInterval (its timer idle) adds one
// for the seal, and SyncAlways one more per append.
func TestFsyncsPerPolicy(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		cm := &countingMetrics{}
		l := mustOpen(t, Options{Dir: t.TempDir(), Policy: policy, Interval: time.Hour, SegmentBytes: 256, Metrics: cm})
		appends := 0
		for cm.get(MetricRotations) == 0 {
			appendN(t, l, appends, 1)
			appends++
		}
		want := map[SyncPolicy]float64{SyncAlways: float64(appends) + 1, SyncInterval: 1, SyncNever: 0}[policy]
		if got := cm.get(MetricFsyncs); got != want {
			t.Errorf("%v: %s = %v after %d appends and one rotation, want %v", policy, MetricFsyncs, got, appends, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := cm.get(MetricFsyncs); got != want+1 {
			t.Errorf("%v: %s = %v after Close, want %v", policy, MetricFsyncs, got, want+1)
		}
	}
}
