package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// genWorkload produces a realistic update stream: several writers extending
// winning revisions (so version histories dominate and branch the way real
// replicas produce them), plus malformed noise. Writers alternate between two
// scratch stores, so a key both write grows concurrent branches; now and then
// a write also reaches the other scratch store, so a later write there
// dominates it. The returned slice is in creation order; callers shuffle it.
func genWorkload(t *testing.T, rng *rand.Rand, writers, updates int) []Update {
	t.Helper()
	scratch := []*Sharded{NewSharded(1), NewSharded(1)}
	now := func() time.Time { return time.Unix(1_700_000_000+int64(rng.Intn(1000)), 0) }
	ws := make([]*Writer, writers)
	for i := range ws {
		w, err := NewWriter(fmt.Sprintf("origin-%d", i), scratch[i%2], now,
			rand.New(rand.NewSource(int64(i)+100)))
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		ws[i] = w
	}
	out := make([]Update, 0, updates)
	for len(out) < updates {
		i := rng.Intn(len(ws))
		key := fmt.Sprintf("key-%d", rng.Intn(12))
		switch rng.Intn(10) {
		case 0:
			out = append(out, ws[i].Delete(key))
		case 1:
			// Malformed noise: the store must ignore it.
			out = append(out, Update{Origin: "", Seq: 9, Key: key})
		case 2:
			out = append(out, Update{Origin: "origin-0", Seq: 0, Key: key})
		default:
			u := ws[i].Put(key, []byte(fmt.Sprintf("v-%d", rng.Int())))
			if rng.Intn(3) == 0 {
				scratch[(i+1)%2].Apply(u)
			}
			out = append(out, u)
		}
	}
	return out
}

// TestShardedSnapshotByteIdentical asserts that the same logical contents
// snapshot to identical bytes regardless of shard count and arrival order,
// and that the snapshot round-trips into any shard count.
func TestShardedSnapshotByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workload := genWorkload(t, rng, 4, 120)

	ref := NewSharded(1)
	for _, u := range workload {
		ref.Apply(u)
	}
	var want bytes.Buffer
	if err := ref.WriteSnapshot(&want); err != nil {
		t.Fatalf("reference snapshot: %v", err)
	}

	for _, shards := range []int{1, 4, 16} {
		sh := NewSharded(shards)
		// Apply in a per-count shuffled order: bytes must not depend on
		// arrival order either.
		stream := append([]Update(nil), workload...)
		rand.New(rand.NewSource(int64(shards))).Shuffle(len(stream),
			func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		for _, u := range stream {
			sh.Apply(u)
		}
		var got bytes.Buffer
		if err := sh.WriteSnapshot(&got); err != nil {
			t.Fatalf("shards=%d: snapshot: %v", shards, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("shards=%d: snapshot bytes differ from reference (%d vs %d bytes)",
				shards, got.Len(), want.Len())
		}

		// Round-trip into a different shard count and back.
		restored := NewSharded(32 / normalizeShards(shards))
		if err := restored.RestoreSnapshot(bytes.NewReader(got.Bytes())); err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		if !restored.Equal(ref) {
			t.Fatalf("shards=%d: restored state diverged", shards)
		}
		var again bytes.Buffer
		if err := restored.WriteSnapshot(&again); err != nil {
			t.Fatalf("shards=%d: re-snapshot: %v", shards, err)
		}
		if !bytes.Equal(again.Bytes(), want.Bytes()) {
			t.Fatalf("shards=%d: round-tripped snapshot bytes differ", shards)
		}
	}
}

// TestShardedReset asserts Reset clears state while keeping the hook and
// accepting new writes, the simulator's crash-with-disk-loss path.
func TestShardedReset(t *testing.T) {
	sh := NewSharded(4)
	hooked := 0
	sh.SetApplyHook(func(Update, ApplyResult, int) { hooked++ })
	rng := rand.New(rand.NewSource(3))
	for _, u := range genWorkload(t, rng, 2, 20) {
		sh.Apply(u)
	}
	sh.Reset()
	if sh.UpdateCount() != 0 || len(sh.Keys()) != 0 || len(sh.Clock()) != 0 {
		t.Fatalf("reset left state: %d updates, %d keys", sh.UpdateCount(), len(sh.Keys()))
	}
	before := hooked
	stamp := time.Unix(1_700_000_000, 0)
	u := Update{Origin: "o", Seq: 1, Key: "k", Value: []byte("v"),
		Version: version.History{version.NewID(stamp, "o", rng)}, Stamp: stamp}
	if res := sh.Apply(u); res != Applied {
		t.Fatalf("post-reset apply = %v", res)
	}
	if hooked != before+1 {
		t.Fatalf("hook lost across reset: %d fires, want %d", hooked, before+1)
	}
}

// TestShardedConcurrentStress drives concurrent Apply / MissingFor /
// Snapshot / reads across shards. Run under -race (the CI race step covers
// this package) it is the data-race probe for the striped locking; the final
// assertions check no update was lost or duplicated.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		writers   = 8
		perWriter = 150
	)
	sh := NewSharded(4)
	stamp := time.Unix(1_700_000_000, 0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: anti-entropy diffs, snapshots, clock/key scans, point reads.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			remote := version.NewClock()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					for _, u := range sh.MissingFor(remote) {
						remote[u.Origin] = max(remote[u.Origin], u.Seq)
					}
				case 1:
					var buf bytes.Buffer
					if err := sh.WriteSnapshot(&buf); err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
				case 2:
					sh.Clock()
					sh.Keys()
					sh.Get("key-3")
					sh.GCTombstones(stamp)
				}
			}
		}(r)
	}
	// Writers: distinct origins, interleaved keys, occasional duplicate
	// re-applies — the live ingest shape (one goroutine per connection).
	var applyWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		applyWG.Add(1)
		go func(w int) {
			defer applyWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			origin := fmt.Sprintf("writer-%d", w)
			var history version.History
			for seq := 1; seq <= perWriter; seq++ {
				history = history.Append(version.NewID(stamp, origin, rng))
				u := Update{
					Origin: origin, Seq: uint64(seq),
					Key:   fmt.Sprintf("key-%d", rng.Intn(16)),
					Value: []byte{byte(seq)}, Version: history, Stamp: stamp,
				}
				if res := sh.Apply(u); res == Duplicate {
					t.Errorf("fresh update %s claimed duplicate", u.ID())
					return
				}
				if seq%7 == 0 {
					if res := sh.Apply(u); res != Duplicate {
						t.Errorf("re-applied %s = %v, want Duplicate", u.ID(), res)
						return
					}
				}
			}
		}(w)
	}
	applyWG.Wait()
	close(stop)
	wg.Wait()

	if got, want := sh.UpdateCount(), writers*perWriter; got != want {
		t.Fatalf("update count %d, want %d", got, want)
	}
	clock := sh.Clock()
	for w := 0; w < writers; w++ {
		if got := clock.Get(fmt.Sprintf("writer-%d", w)); got != perWriter {
			t.Fatalf("writer-%d clock %d, want %d", w, got, perWriter)
		}
	}
	// The full log must replay into an identical one-shard store.
	ref := NewSharded(1)
	for _, u := range sh.MissingFor(nil) {
		ref.Apply(u)
	}
	if !sh.Equal(ref) {
		t.Fatal("concurrent state does not replay into a one-shard store")
	}
}

// TestLiveCutKeepsInFlightUpdate pins the cut's drop rule on the state
// Sharded.apply passes through between its two locks: an update recorded in
// the log — and the clock — whose revision has not been merged yet. The cut
// must ship it (nothing resident has overwritten it), because the frontier
// beside it covers its sequence number and a receiver would never accept a
// later copy.
func TestLiveCutKeepsInFlightUpdate(t *testing.T) {
	w, err := NewWriter("origin", NewSharded(1), nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	first := w.Put("k", []byte("v1"))
	second := w.Put("k", []byte("v2")) // overwrites first
	other := w.Put("j", []byte("w"))   // a key with no revision at all yet

	src := NewSharded(4)
	src.Apply(first)
	inFlight := []Update{second, other}
	for _, u := range inFlight {
		ls := src.logFor(u.Origin)
		ls.mu.Lock()
		ls.data.record(u)
		ls.mu.Unlock()
	}

	cut, frontier := src.LiveCut()
	if got, want := fmt.Sprint(refsOf(cut)), fmt.Sprint(refsOf([]Update{first, second, other})); got != want {
		t.Fatalf("cut mid-apply = %s, want %s: an unmerged update is in flight, not superseded", got, want)
	}
	if frontier.Get("origin") != 3 {
		t.Fatalf("frontier %v does not cover the recorded updates", frontier)
	}
	dst := NewSharded(4)
	for _, u := range cut {
		dst.Apply(u)
	}
	dst.AdoptFrontier(frontier)

	// The applies complete: the receiver of the earlier cut already holds
	// everything, and only now is the first write history.
	for _, u := range inFlight {
		is := src.itemFor(u.Key)
		is.mu.Lock()
		applyRevision(is.items, u)
		is.mu.Unlock()
	}
	if !dst.Equal(src) || dst.Clock().Compare(src.Clock()) != version.Equal {
		t.Fatal("receiver of the mid-apply cut differs from the source once its applies completed")
	}
	cut, _ = src.LiveCut()
	if got, want := fmt.Sprint(refsOf(cut)), fmt.Sprint(refsOf([]Update{second, other})); got != want {
		t.Fatalf("cut after the applies = %s, want %s", got, want)
	}
}

// TestCompactLogKeepsInFlightUpdate pins compaction's retention rule on the
// same mid-apply state: a frontier that already covers an update recorded in
// the log but not yet merged must not drop it — the clock vouches for it and
// no peer would accept a later copy — while an entry whose revision is gone
// because its tombstone was collected is still history.
func TestCompactLogKeepsInFlightUpdate(t *testing.T) {
	w, err := NewWriter("origin", NewSharded(1), nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	first := w.Put("k", []byte("v1"))
	second := w.Put("k", []byte("v2")) // overwrites first
	other := w.Put("j", []byte("w"))   // a key with no revision at all yet

	src := NewSharded(4)
	src.Apply(first)
	inFlight := []Update{second, other}
	for _, u := range inFlight {
		ls := src.logFor(u.Origin)
		ls.mu.Lock()
		ls.data.record(u)
		ls.inFlight.Add(1)
		ls.mu.Unlock()
	}
	if n := src.CompactLog(src.Clock()); n != 0 {
		t.Fatalf("compaction mid-apply dropped %d entries; none is superseded by anything resident", n)
	}
	if got, want := fmt.Sprint(refsOf(src.MissingFor(nil))), fmt.Sprint(refsOf([]Update{first, second, other})); got != want {
		t.Fatalf("log mid-apply = %s, want %s", got, want)
	}

	// The applies complete; only now is the first write history.
	for _, u := range inFlight {
		is := src.itemFor(u.Key)
		is.mu.Lock()
		applyRevision(is.items, u)
		is.mu.Unlock()
		src.logFor(u.Origin).inFlight.Add(-1)
	}
	if n := src.CompactLog(src.Clock()); n != 1 {
		t.Fatalf("compaction after the applies dropped %d entries, want 1 (the overwritten write)", n)
	}
	want := NewSharded(4)
	for _, u := range []Update{first, second, other} {
		want.Apply(u)
	}
	if !src.Equal(want) {
		t.Fatal("state differs from a store that applied the same updates undisturbed")
	}

	// A collected tombstone has no revision either, and nothing in flight
	// excuses it: both the delete and the write it covered are dropped.
	del := w.Delete("j")
	src.Apply(del)
	if n := src.GCTombstones(del.Stamp.Add(2 * DefaultTombstoneRetention)); n != 1 {
		t.Fatalf("GC collected %d tombstones, want 1", n)
	}
	if n := src.CompactLog(src.Clock()); n != 2 {
		t.Fatalf("compaction after the GC dropped %d entries, want 2", n)
	}
	if got, want := fmt.Sprint(refsOf(src.MissingFor(nil))), fmt.Sprint(refsOf([]Update{second})); got != want {
		t.Fatalf("resident log = %s, want %s", got, want)
	}
}

// TestNormalizeShards pins the shard-count rounding rule.
func TestNormalizeShards(t *testing.T) {
	cases := map[int]int{
		-1: DefaultShards, 0: DefaultShards,
		1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 16: 16, 17: 32,
		maxShards: maxShards, maxShards + 1: maxShards,
	}
	for in, want := range cases {
		if got := normalizeShards(in); got != want {
			t.Errorf("normalizeShards(%d) = %d, want %d", in, got, want)
		}
	}
	if got := NewSharded(6).ShardCount(); got != 8 {
		t.Errorf("ShardCount = %d, want 8", got)
	}
}
