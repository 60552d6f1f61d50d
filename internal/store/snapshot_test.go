package store

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 40)
	w.Put("x", []byte("1"))
	w.Put("y", []byte("2"))
	w.Put("x", []byte("3"))
	w.Delete("y")

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored := NewSharded(4)
	if err := restored.RestoreSnapshot(&buf); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if !st.Equal(restored) {
		t.Fatal("restored store differs")
	}
	if restored.UpdateCount() != 4 {
		t.Fatalf("restored log = %d updates", restored.UpdateCount())
	}
	if got := restored.Clock().Get("a"); got != 4 {
		t.Fatalf("restored clock = %d", got)
	}
	// Tombstone survived the round trip.
	if _, ok := restored.Get("y"); ok {
		t.Fatal("delete lost in snapshot")
	}
	if len(restored.Versions("y")) != 1 {
		t.Fatal("tombstone branch lost")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewSharded(4).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewSharded(4)
	if err := restored.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.UpdateCount() != 0 || len(restored.Keys()) != 0 {
		t.Fatal("empty snapshot restored non-empty store")
	}
}

func TestWriterResyncAfterRestore(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 43)
	w.Put("k", []byte("1"))
	w.Put("k", []byte("2"))

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A writer wired to a fresh store before the restore lands.
	fresh := NewSharded(4)
	w2 := testWriter(t, "a", fresh, 44)
	if err := fresh.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	w2.Resync()
	u := w2.Put("k", []byte("3"))
	if u.Seq != 3 {
		t.Fatalf("post-restore Seq = %d, want 3", u.Seq)
	}
}

// TestRestoreSnapshotInPlace checks the restart path: RestoreSnapshot swaps
// the contents of an already-wired store (pointer and apply hook stable) and
// keeps the store's own tombstone retention.
func TestRestoreSnapshotInPlace(t *testing.T) {
	src := NewSharded(4)
	w := testWriter(t, "a", src, 41)
	w.Put("x", []byte("1"))
	w.Delete("x")
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	dst := NewShardedWithRetention(4, time.Hour)
	hooked := 0
	dst.SetApplyHook(func(Update, ApplyResult, int) { hooked++ })
	testWriter(t, "b", dst, 42).Put("old", []byte("gone"))
	preHooks := hooked
	if err := dst.RestoreSnapshot(&buf); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if !dst.Equal(src) {
		t.Fatal("restored store differs from source")
	}
	if _, ok := dst.Get("old"); ok {
		t.Fatal("pre-restore state survived")
	}
	if hooked != preHooks {
		t.Fatal("restore replay fired the apply hook")
	}
	// The hook must remain wired for post-restore traffic.
	testWriter(t, "c", dst, 43).Put("new", []byte("1"))
	if hooked != preHooks+1 {
		t.Fatal("apply hook lost across restore")
	}
	// Retention stays the destination's: an expired tombstone under the
	// 1-hour retention is collected even though the source used the default.
	if got := dst.GCTombstones(time.Unix(1_700_000_000, 0).Add(48 * time.Hour)); got != 1 {
		t.Fatalf("GC collected %d tombstones, want 1 (retention not kept)", got)
	}
}

// TestRestoreSnapshotGarbage: an unreadable snapshot is an error — into an
// empty store as into a populated one — and leaves the store untouched.
func TestRestoreSnapshotGarbage(t *testing.T) {
	if err := NewSharded(4).RestoreSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted by an empty store")
	}
	st := NewSharded(4)
	testWriter(t, "a", st, 44).Put("x", []byte("1"))
	if err := st.RestoreSnapshot(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, ok := st.Get("x"); !ok {
		t.Fatal("failed restore clobbered the store")
	}
}
