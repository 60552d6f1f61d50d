package live

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
)

// copyFiles copies the regular files of src that keep accepts, all of them
// when keep is nil, into dst.
func copyFiles(t *testing.T, dst, src string, keep func(name string) bool) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || (keep != nil && !keep(e.Name())) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// image returns a fresh directory holding the files of each of srcs, a
// later one's winning.
func image(t *testing.T, srcs ...string) string {
	t.Helper()
	dst := t.TempDir()
	for _, src := range srcs {
		copyFiles(t, dst, src, nil)
	}
	return dst
}

const checkpointName = "checkpoint.snap"

// isSegment reports whether a WAL directory entry is a segment file.
func isSegment(name string) bool { return strings.HasSuffix(name, ".seg") }

// recoverDir opens a replica on the WAL in dir and runs RecoverWAL.
func recoverDir(t *testing.T, dir, addr string) (*Replica, WALRecovery, error) {
	t.Helper()
	l := openWAL(t, dir, wal.Options{})
	t.Cleanup(func() { l.Close() })
	tr, err := NewHub().Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Config{Fanout: 0, Seed: 7, WAL: l}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	rec, err := r.RecoverWAL()
	return r, rec, err
}

// TestCheckpointCrashPoints kills a checkpoint at each of its steps: after
// the seal, before the rename (a half-written temp file beside the previous
// checkpoint and every segment); after the rename, before the prune (the new
// checkpoint beside the segments it covers); after the prune. Appends go on
// past the seal, so each image also holds a tail segment. Each must recover
// the source store exactly: live state, clock, compacted watermark and
// resident log.
func TestCheckpointCrashPoints(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{SegmentBytes: 512})
	defer l.Close()
	tr, err := NewHub().Attach("crash-src")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplica(Config{Fanout: 0, Seed: 1, WAL: l}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	write := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := src.Publish(fmt.Sprintf("k%d", i%7), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				if _, err := src.Delete(fmt.Sprintf("k%d", (i+3)%7)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A compacted log, so the checkpoint's frontier record carries holes.
	write(0, 40)
	if src.st.CompactLog(src.st.Clock()) == 0 {
		t.Fatal("compaction dropped nothing")
	}
	if _, err := src.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	write(40, 70)

	before := image(t, dir)
	if _, err := src.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	write(70, 80)
	after := image(t, dir)

	ckpt, err := os.ReadFile(filepath.Join(after, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	torn := t.TempDir()
	if err := os.WriteFile(filepath.Join(torn, checkpointName+".tmp-1"), ckpt[:len(ckpt)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	copyFiles(t, torn, after, isSegment) // the tail segment
	images := map[string]string{
		"before rename": image(t, before, torn),
		"before prune":  image(t, before, after),
		"after prune":   after,
	}
	for name, img := range images {
		got, _, err := recoverDir(t, img, "crash-src")
		if err != nil {
			t.Fatalf("%s: RecoverWAL: %v", name, err)
		}
		if !got.st.Equal(src.st) {
			t.Errorf("%s: recovered live state differs", name)
		}
		if got.st.Clock().Compare(src.st.Clock()) != version.Equal {
			t.Errorf("%s: clock %v, want %v", name, got.st.Clock(), src.st.Clock())
		}
		if got.st.CompactedThrough().Compare(src.st.CompactedThrough()) != version.Equal {
			t.Errorf("%s: compacted through %v, want %v", name, got.st.CompactedThrough(), src.st.CompactedThrough())
		}
		if got.st.UpdateCount() != src.st.UpdateCount() {
			t.Errorf("%s: %d resident updates, want %d", name, got.st.UpdateCount(), src.st.UpdateCount())
		}
	}
}

// TestReplicaRefusesDamagedCheckpoint flips one byte of a checkpoint — in
// its header, a record's length, a body, the last byte — and recovery must
// fail naming the file, having applied nothing.
func TestReplicaRefusesDamagedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{})
	tr, err := NewHub().Attach("flip-src")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplica(Config{Fanout: 0, Seed: 1, WAL: l}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := src.Publish(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	src.Stop()
	l.Close()
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 8, 20, len(ckpt) / 2, len(ckpt) - 1} {
		img := image(t, dir)
		flipped := append([]byte(nil), ckpt...)
		flipped[off] ^= 0x20
		path := filepath.Join(img, checkpointName)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		r, _, err := recoverDir(t, img, "flip-dst")
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("byte %d flipped: RecoverWAL error %v, want one naming %s", off, err, path)
		}
		if n := r.st.UpdateCount(); n != 0 {
			t.Fatalf("byte %d flipped: %d updates applied from a refused checkpoint", off, n)
		}
	}
}
