package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// oracleScan is an independent reimplementation of the recovery contract,
// used as the fuzz oracle: walk the segment bytes, stop at the first
// framing or checksum failure, decode what decodes, skip what does not.
// Replay must deliver exactly this sequence — in particular it must never
// deliver a record whose stored checksum does not match its body. end is
// where the valid records end, 0 when the header is bad.
func oracleScan(data []byte) (recs []Record, skipped, end int) {
	want := segmentHeader()
	if len(data) < len(want) {
		return nil, 0, 0
	}
	for i := range want {
		if data[i] != want[i] {
			return nil, 0, 0
		}
	}
	off := headerSize
	for {
		if off+recordHeaderSize > len(data) {
			return recs, skipped, off
		}
		n := binary.BigEndian.Uint32(data[off : off+4])
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > MaxRecordBytes || off+recordHeaderSize+int(n) > len(data) {
			return recs, skipped, off
		}
		body := data[off+recordHeaderSize : off+recordHeaderSize+int(n)]
		if crc32.Checksum(body, crcTable) != crc {
			return recs, skipped, off
		}
		if rec, ok := decodeOracle(body); ok {
			recs = append(recs, rec)
		} else {
			skipped++
		}
		off += recordHeaderSize + int(n)
	}
}

// decodeOracle mirrors record decoding without sharing code with it.
func decodeOracle(body []byte) (Record, bool) {
	switch RecordKind(body[0]) {
	case RecordUpdate:
		u, err := wire.DecodeStoreUpdate(body[1:])
		if err != nil {
			return Record{}, false
		}
		return Record{Kind: RecordUpdate, Update: u}, true
	case RecordFrontier:
		c, err := wire.DecodeClock(body[1:])
		if err != nil {
			return Record{}, false
		}
		return Record{Kind: RecordFrontier, Frontier: c}, true
	default:
		return Record{}, false
	}
}

// FuzzWALRecover feeds arbitrary bytes to recovery as a lone segment.
// Recovery must never panic, must accept any damage (an Open or Replay
// error is a bug), must deliver exactly the oracle's record sequence — so
// no record failing its checksum is ever replayed — and must leave a log
// that accepts appends and recovers the same way a second time.
func FuzzWALRecover(f *testing.F) {
	// Seed: a clean log, then truncations and bit flips at interesting
	// offsets.
	seedDir := f.TempDir()
	{
		l, err := Open(Options{Dir: seedDir, Policy: SyncNever})
		if err != nil {
			f.Fatalf("Open: %v", err)
		}
		for i := 0; i < 4; i++ {
			if err := l.Append(testUpdate(i)); err != nil {
				f.Fatalf("Append: %v", err)
			}
		}
		if err := l.AppendFrontier(map[string]uint64{"a": 3}); err != nil {
			f.Fatalf("AppendFrontier: %v", err)
		}
		if err := l.Close(); err != nil {
			f.Fatalf("Close: %v", err)
		}
	}
	clean, err := os.ReadFile(segmentPath(seedDir, 1))
	if err != nil {
		f.Fatalf("ReadFile: %v", err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(clean[:headerSize+5])
	f.Add(clean[:3])
	f.Add([]byte{})
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), clean...), 0xff, 0x00, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		wantRecs, wantSkipped, _ := oracleScan(data)

		l, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatalf("Open rejected a damaged segment: %v", err)
		}
		var got []Record
		st, err := l.Replay(func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(got) != len(wantRecs) || st.Skipped != wantSkipped {
			t.Fatalf("replayed %d records (skipped %d), oracle says %d (%d)",
				len(got), st.Skipped, len(wantRecs), wantSkipped)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], wantRecs[i]) {
				t.Fatalf("record %d = %+v, oracle %+v", i, got[i], wantRecs[i])
			}
		}

		// The log must accept appends, and the next recovery must see the
		// same records plus the new one and report the same damage.
		if err := l.Append(testUpdate(999)); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		n := 0
		st2, err := l2.Replay(func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if n != len(wantRecs)+1 || st2.Skipped != wantSkipped {
			t.Fatalf("second recovery saw %d records (skipped %d), want %d (%d)",
				n, st2.Skipped, len(wantRecs)+1, wantSkipped)
		}
		if st2.TruncatedBytes != st.TruncatedBytes {
			t.Fatalf("second recovery TruncatedBytes = %d, first %d", st2.TruncatedBytes, st.TruncatedBytes)
		}
	})
}

// FuzzWALCheckpoint feeds arbitrary bytes to recovery as the checkpoint,
// beside one clean segment. The checkpoint is usable only when the oracle
// reads all of it, past a valid header, without skipping a record; then
// Replay must deliver exactly its records followed by the segment's, and
// otherwise fail having delivered nothing. It must never panic.
func FuzzWALCheckpoint(f *testing.F) {
	us := []store.Update{testUpdate(1), testUpdate(2), testUpdate(7)}
	var clean bytes.Buffer
	if err := WriteCheckpoint(&clean, us, version.Clock{"origin-1": 2}); err != nil {
		f.Fatal(err)
	}
	var gob bytes.Buffer
	old := store.NewSharded(1)
	for _, u := range us {
		old.Apply(u)
	}
	if err := old.WriteSnapshot(&gob); err != nil {
		f.Fatal(err)
	}
	c := clean.Bytes()
	f.Add(c)
	f.Add(c[:len(c)-3])
	f.Add(c[:headerSize])
	f.Add(c[:headerSize+5])
	f.Add([]byte{})
	flipped := append([]byte(nil), c...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), c...), 0xff, 0x00, 0xff))
	f.Add(gob.Bytes())

	segDir := f.TempDir()
	{
		l, err := Open(Options{Dir: segDir, Policy: SyncNever})
		if err != nil {
			f.Fatal(err)
		}
		for i := 10; i < 14; i++ {
			if err := l.Append(testUpdate(i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
	}
	seg, err := os.ReadFile(segmentPath(segDir, 1))
	if err != nil {
		f.Fatal(err)
	}
	segRecs, _, _ := oracleScan(seg)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ckptRecs, skipped, end := oracleScan(data)
		usable := end >= headerSize && end == len(data) && skipped == 0

		l, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		var got []Record
		_, err = l.Replay(func(r Record) error {
			got = append(got, r)
			return nil
		})
		if !usable {
			if err == nil || len(got) != 0 {
				t.Fatalf("unusable checkpoint: Replay delivered %d records, error %v; want none and an error", len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Replay refused a usable checkpoint: %v", err)
		}
		want := append(append([]Record(nil), ckptRecs...), segRecs...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed %d records, want the checkpoint's %d then the segment's %d", len(got), len(ckptRecs), len(segRecs))
		}
	})
}
