package store

import (
	"math/rand"
	"testing"
	"time"
)

// TestCryptoSeedDistinct guards the seeding fallback shared by writers and
// replicas: seeds drawn for instances created concurrently must not collide
// the way time-derived seeds can (coarse clocks hand identical UnixNano
// values to writers created in the same instant).
func TestCryptoSeedDistinct(t *testing.T) {
	seen := make(map[int64]struct{}, 256)
	for i := 0; i < 256; i++ {
		s := CryptoSeed()
		if _, dup := seen[s]; dup {
			t.Fatalf("seed %d repeated within 256 draws", s)
		}
		seen[s] = struct{}{}
	}
}

// TestNewWriterNilRNGDistinctStreams pins the fix for the time-seeded
// fallback: two writers built in the same instant without an injected RNG
// must still draw distinct version-ID streams.
func TestNewWriterNilRNGDistinctStreams(t *testing.T) {
	now := func() time.Time { return time.Unix(1_700_000_000, 0) }
	w1, err := NewWriter("same-origin", NewSharded(1), now, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter("same-origin", NewSharded(1), now, nil)
	if err != nil {
		t.Fatal(err)
	}
	u1 := w1.Put("k", []byte("v"))
	u2 := w2.Put("k", []byte("v"))
	h1, err := u1.Version.Head()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := u2.Version.Head()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("writers with nil RNGs drew identical version ids")
	}
}

// TestPutExistingKeyCopiesNoValue pins the local write path: overwriting a
// key reads the winning history in place, so the update's own value copy is
// the only one. Three objects in all; reading the parent through a sorted,
// cloned winner cost seven.
func TestPutExistingKeyCopiesNoValue(t *testing.T) {
	w, err := NewWriter("w", NewSharded(1), time.Now, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 100)
	w.PutObserved("k", value)
	if n := testing.AllocsPerRun(1000, func() { w.PutObserved("k", value) }); n > 3 {
		t.Fatalf("PutObserved on an existing key allocates %v objects, want ≤ 3", n)
	}
}
