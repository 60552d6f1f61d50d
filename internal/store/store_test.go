package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

func testWriter(t *testing.T, origin string, st Backend, seed int64) *Writer {
	t.Helper()
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}
	w, err := NewWriter(origin, st, now, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

func TestPutGet(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 1)
	w.Put("k", []byte("v1"))
	rev, ok := st.Get("k")
	if !ok || string(rev.Value) != "v1" {
		t.Fatalf("Get = %v %v", rev, ok)
	}
	w.Put("k", []byte("v2"))
	rev, ok = st.Get("k")
	if !ok || string(rev.Value) != "v2" {
		t.Fatalf("after second Put: %q", rev.Value)
	}
	if len(st.Versions("k")) != 1 {
		t.Fatalf("sequential writes should not branch: %d revisions", len(st.Versions("k")))
	}
}

func TestDeleteAndResurrect(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 2)
	w.Put("k", []byte("v1"))
	w.Delete("k")
	if _, ok := st.Get("k"); ok {
		t.Fatal("deleted key still visible")
	}
	if len(st.Keys()) != 0 {
		t.Fatalf("Keys after delete = %v", st.Keys())
	}
	// Tombstoned branch still exists for reconciliation.
	if got := len(st.Versions("k")); got != 1 {
		t.Fatalf("tombstone revisions = %d", got)
	}
	// A new write supersedes the tombstone.
	w.Put("k", []byte("v2"))
	rev, ok := st.Get("k")
	if !ok || string(rev.Value) != "v2" {
		t.Fatalf("resurrect failed: %v %v", rev, ok)
	}
	if got := len(st.Versions("k")); got != 1 {
		t.Fatalf("resurrection should supersede tombstone, got %d branches", got)
	}
}

func TestApplyIdempotent(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 3)
	u := w.Put("k", []byte("v"))
	if got := st.Apply(u); got != Duplicate {
		t.Fatalf("re-apply = %v, want Duplicate", got)
	}
	if st.UpdateCount() != 1 {
		t.Fatalf("UpdateCount = %d", st.UpdateCount())
	}
}

func TestApplyMalformed(t *testing.T) {
	st := NewSharded(4)
	if got := st.Apply(Update{Origin: "", Seq: 1, Key: "k"}); got != Obsolete {
		t.Fatalf("empty origin = %v", got)
	}
	if got := st.Apply(Update{Origin: "a", Seq: 0, Key: "k"}); got != Obsolete {
		t.Fatalf("zero seq = %v", got)
	}
	if st.UpdateCount() != 0 {
		t.Fatal("malformed updates were logged")
	}
}

func TestApplyObsolete(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 4)
	u1 := w.Put("k", []byte("v1"))
	u2 := w.Put("k", []byte("v2"))

	other := NewSharded(4)
	other.Apply(u2) // apply v2 first
	if got := other.Apply(u1); got != Obsolete {
		t.Fatalf("ancestor update = %v, want Obsolete", got)
	}
	rev, _ := other.Get("k")
	if string(rev.Value) != "v2" {
		t.Fatalf("obsolete apply overwrote winner: %q", rev.Value)
	}
}

func TestConcurrentBranchesCoexist(t *testing.T) {
	stA, stB := NewSharded(4), NewSharded(4)
	wA := testWriter(t, "a", stA, 5)
	wB := testWriter(t, "b", stB, 6)
	uA := wA.Put("k", []byte("from-a"))
	uB := wB.Put("k", []byte("from-b"))

	// Cross-apply: both stores now hold two concurrent branches.
	stA.Apply(uB)
	stB.Apply(uA)
	if got := len(stA.Versions("k")); got != 2 {
		t.Fatalf("A branches = %d, want 2", got)
	}
	if got := len(stB.Versions("k")); got != 2 {
		t.Fatalf("B branches = %d, want 2", got)
	}
	// Deterministic winner: both replicas agree.
	ra, _ := stA.Get("k")
	rb, _ := stB.Get("k")
	if !bytes.Equal(ra.Value, rb.Value) {
		t.Fatalf("winners disagree: %q vs %q", ra.Value, rb.Value)
	}
	if !stA.Equal(stB) {
		t.Fatal("stores should be Equal after cross-apply")
	}
}

func TestConflictResolutionByLongerHistory(t *testing.T) {
	stA, stB := NewSharded(4), NewSharded(4)
	wA := testWriter(t, "a", stA, 7)
	wB := testWriter(t, "b", stB, 8)
	wA.Put("k", []byte("a1"))
	uA2 := wA.Put("k", []byte("a2")) // history length 2
	uB1 := wB.Put("k", []byte("b1")) // history length 1

	stB.Apply(uA2)
	rev, _ := stB.Get("k")
	if string(rev.Value) != "a2" {
		t.Fatalf("longer history should win: got %q", rev.Value)
	}
	stA.Apply(uB1)
	rev, _ = stA.Get("k")
	if string(rev.Value) != "a2" {
		t.Fatalf("longer history should win on A too: got %q", rev.Value)
	}
}

func TestClockAndMissingFor(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 9)
	u1 := w.Put("x", []byte("1"))
	u2 := w.Put("y", []byte("2"))

	empty := version.NewClock()
	missing := st.MissingFor(empty)
	if len(missing) != 2 {
		t.Fatalf("missing for empty clock = %d", len(missing))
	}
	if missing[0].ID() != u1.ID() || missing[1].ID() != u2.ID() {
		t.Fatalf("missing order wrong: %v %v", missing[0].ID(), missing[1].ID())
	}
	// A clock that has seen u1 gets only u2.
	partial := version.NewClock()
	partial["a"] = 1
	missing = st.MissingFor(partial)
	if len(missing) != 1 || missing[0].ID() != u2.ID() {
		t.Fatalf("missing for partial clock = %v", missing)
	}
	// Fully caught up: nothing.
	if got := st.MissingFor(st.Clock()); len(got) != 0 {
		t.Fatalf("missing for own clock = %v", got)
	}
}

func TestAntiEntropyConvergence(t *testing.T) {
	// Two replicas with disjoint writes converge by exchanging
	// MissingFor(other.Clock()) both ways — the pull-phase core.
	stA, stB := NewSharded(4), NewSharded(4)
	wA := testWriter(t, "a", stA, 10)
	wB := testWriter(t, "b", stB, 11)
	for i := 0; i < 10; i++ {
		wA.Put(fmt.Sprintf("ka%d", i), []byte{byte(i)})
		wB.Put(fmt.Sprintf("kb%d", i), []byte{byte(i)})
	}
	wB.Delete("kb3")

	for _, u := range stA.MissingFor(stB.Clock()) {
		stB.Apply(u)
	}
	for _, u := range stB.MissingFor(stA.Clock()) {
		stA.Apply(u)
	}
	if !stA.Equal(stB) {
		t.Fatal("replicas did not converge")
	}
	if _, ok := stA.Get("kb3"); ok {
		t.Fatal("tombstone did not propagate")
	}
	if len(stA.Keys()) != 19 {
		t.Fatalf("Keys = %d, want 19", len(stA.Keys()))
	}
}

func TestAntiEntropyConvergencePropertyRandomSchedules(t *testing.T) {
	// Property: any interleaving of update deliveries converges to the same
	// state as long as every update eventually reaches every replica.
	cfg := &quick.Config{
		MaxCount: 40,
		Values: quickValues(func(args []interface{}, r *rand.Rand) {
			args[0] = r.Int63()
		}),
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const replicas = 4
		stores := make([]*Sharded, replicas)
		writers := make([]*Writer, replicas)
		clock := time.Unix(2_000_000, 0)
		now := func() time.Time {
			clock = clock.Add(time.Second)
			return clock
		}
		var all []Update
		for i := range stores {
			stores[i] = NewSharded(4)
			w, err := NewWriter(fmt.Sprintf("r%d", i), stores[i], now,
				rand.New(rand.NewSource(seed+int64(i))))
			if err != nil {
				return false
			}
			writers[i] = w
		}
		keys := []string{"k0", "k1", "k2"}
		for step := 0; step < 20; step++ {
			w := writers[rng.Intn(replicas)]
			key := keys[rng.Intn(len(keys))]
			if rng.Intn(5) == 0 {
				all = append(all, w.Delete(key))
			} else {
				all = append(all, w.Put(key, []byte{byte(step)}))
			}
		}
		// Deliver every update to every replica in a random order.
		for i := range stores {
			perm := rng.Perm(len(all))
			for _, idx := range perm {
				stores[i].Apply(all[idx])
			}
		}
		for i := 1; i < replicas; i++ {
			if !stores[0].Equal(stores[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("convergence property failed: %v", err)
	}
}

func TestGCTombstones(t *testing.T) {
	st := NewShardedWithRetention(4, time.Hour)
	w := testWriter(t, "a", st, 12)
	w.Put("k", []byte("v"))
	del := w.Delete("k")
	if got := st.GCTombstones(del.Stamp.Add(30 * time.Minute)); got != 0 {
		t.Fatalf("early GC collected %d", got)
	}
	if got := st.GCTombstones(del.Stamp.Add(2 * time.Hour)); got != 1 {
		t.Fatalf("GC collected %d, want 1", got)
	}
	if got := len(st.Versions("k")); got != 0 {
		t.Fatalf("revisions after GC = %d", got)
	}
	// The clock still knows about the delete, so reconciliation with the
	// origin does not resurrect it from our side.
	if st.Clock().Get("a") != 2 {
		t.Fatalf("clock regressed: %v", st.Clock())
	}
}

func TestUpdateSizeBytes(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "origin", st, 13)
	u := w.Put("key", []byte("value"))
	want := 24 + len("key") + len("value") + 1*version.IDSize
	if got := u.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter("", NewSharded(4), nil, nil); err == nil {
		t.Fatal("empty origin should error")
	}
	if _, err := NewWriter("a", nil, nil, nil); err == nil {
		t.Fatal("nil store should error")
	}
}

func TestWriterResumesSequence(t *testing.T) {
	st := NewSharded(4)
	w1 := testWriter(t, "a", st, 14)
	w1.Put("k", []byte("1"))
	w1.Put("k", []byte("2"))
	// A writer recreated over the same store must not reuse sequence
	// numbers.
	w2 := testWriter(t, "a", st, 15)
	u := w2.Put("k", []byte("3"))
	if u.Seq != 3 {
		t.Fatalf("resumed Seq = %d, want 3", u.Seq)
	}
}

func TestGetCopiesState(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 16)
	w.Put("k", []byte("abc"))
	rev, _ := st.Get("k")
	rev.Value[0] = 'X'
	again, _ := st.Get("k")
	if string(again.Value) != "abc" {
		t.Fatal("Get exposed internal state")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a, b := NewSharded(4), NewSharded(4)
	wa := testWriter(t, "a", a, 17)
	if !a.Equal(b) {
		t.Fatal("two empty stores should be equal")
	}
	u := wa.Put("k", []byte("v"))
	if a.Equal(b) {
		t.Fatal("different stores reported equal")
	}
	b.Apply(u)
	if !a.Equal(b) {
		t.Fatal("synced stores should be equal")
	}
	wb := testWriter(t, "b", b, 18)
	wb.Put("k2", []byte("w"))
	if a.Equal(b) {
		t.Fatal("stores with different keys reported equal")
	}
}

func TestApplyResultString(t *testing.T) {
	for r, want := range map[ApplyResult]string{
		Applied: "applied", Duplicate: "duplicate", Obsolete: "obsolete",
	} {
		if got := r.String(); got != want {
			t.Fatalf("String = %q", got)
		}
	}
	if got := ApplyResult(42).String(); got != "ApplyResult(42)" {
		t.Fatalf("unknown String = %q", got)
	}
}

func TestOutOfOrderDelivery(t *testing.T) {
	st := NewSharded(4)
	w := testWriter(t, "a", st, 19)
	var updates []Update
	for i := 0; i < 5; i++ {
		updates = append(updates, w.Put("k", []byte{byte(i)}))
	}
	// Deliver to a fresh store in reverse: the newest (longest-history)
	// revision must win and obsolete ancestors must not branch.
	fresh := NewSharded(4)
	for i := len(updates) - 1; i >= 0; i-- {
		fresh.Apply(updates[i])
	}
	rev, ok := fresh.Get("k")
	if !ok || rev.Value[0] != 4 {
		t.Fatalf("winner after reverse delivery = %v %v", rev.Value, ok)
	}
	if got := len(fresh.Versions("k")); got != 1 {
		t.Fatalf("branches = %d, want 1", got)
	}
	if fresh.Clock().Get("a") != 5 {
		t.Fatalf("clock = %v", fresh.Clock())
	}
}

func quickValues(fill func(args []interface{}, r *rand.Rand)) func([]reflect.Value, *rand.Rand) {
	return func(vals []reflect.Value, r *rand.Rand) {
		args := make([]interface{}, len(vals))
		fill(args, r)
		for i := range vals {
			vals[i] = reflect.ValueOf(args[i])
		}
	}
}

func TestClockGapSemantics(t *testing.T) {
	// A lost update (sequence gap) must keep the clock low so that a later
	// pull re-fetches the hole.
	src := NewSharded(4)
	w := testWriter(t, "a", src, 20)
	u1 := w.Put("x", []byte("1"))
	u2 := w.Put("y", []byte("2"))
	u3 := w.Put("z", []byte("3"))

	dst := NewSharded(4)
	dst.Apply(u1)
	dst.Apply(u3) // u2 lost in flight
	if got := dst.Clock().Get("a"); got != 1 {
		t.Fatalf("clock with gap = %d, want 1 (contiguous prefix)", got)
	}
	// Anti-entropy from the source must close the gap (and may resend u3,
	// which is harmless).
	for _, u := range src.MissingFor(dst.Clock()) {
		dst.Apply(u)
	}
	if got := dst.Clock().Get("a"); got != 3 {
		t.Fatalf("clock after repair = %d, want 3", got)
	}
	if _, ok := dst.Get("y"); !ok {
		t.Fatal("gap update not recovered")
	}
	_ = u2
	if !src.Equal(dst) {
		t.Fatal("stores did not converge after gap repair")
	}
}

// TestCompactLogRevisitsRetainedEntries: an entry compaction retained below
// the watermark because it backed a revision is dropped by a later pass once
// something overwrote it, even when its origin's watermark cannot advance —
// the origin went quiet, so frontier and clock stay where the watermark is.
func TestCompactLogRevisitsRetainedEntries(t *testing.T) {
	for name, st := range map[string]Backend{"single-shard": NewSharded(1), "sharded": NewSharded(4)} {
		t.Run(name, func(t *testing.T) {
			quiet, err := NewWriter("quiet", st, nil, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			busy, err := NewWriter("busy", st, nil, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			quiet.Put("k", []byte("v1"))
			if n := st.CompactLog(st.Clock()); n != 0 || st.CompactedThrough().Get("quiet") != 1 {
				t.Fatalf("first pass dropped %d, watermark %v; want the live write retained under quiet:1",
					n, st.CompactedThrough())
			}
			busy.Put("k", []byte("v2")) // overwrites the retained entry
			if n := st.CompactLog(st.Clock()); n != 1 {
				t.Fatalf("second pass dropped %d entries, want the overwritten write below the stuck watermark", n)
			}
			if got := st.UpdateCount(); got != 1 {
				t.Fatalf("%d entries resident, want 1", got)
			}
			// Nothing left at or below either watermark but live state: a
			// further pass is a no-op.
			if n := st.CompactLog(st.Clock()); n != 0 {
				t.Fatalf("third pass dropped %d entries", n)
			}
		})
	}
}
