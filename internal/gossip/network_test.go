package gossip

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestBuildNetworkGolden pins every peer's initial view, in view order, for
// complete and sampled construction. The digests were computed before
// construction learned to defer its per-peer costs: any change to the draws,
// their order or the view order fails here.
func TestBuildNetworkGolden(t *testing.T) {
	cases := []struct {
		n, view int
		seed    int64
		want    string
	}{
		{3000, 100, 1, "ce0bbf51723db143"},
		{3000, 100, 7, "49cd2370082d54ab"},
		{40, 0, 1, "33e6ddd364934af8"},
		{2, 0, 5, "cf88bf6c26cc69cb"},
	}
	for _, c := range cases {
		net, err := BuildNetwork(c.n, DefaultConfig(c.n), c.view, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range net.Peers {
			fmt.Fprint(h, p.KnownPeers())
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("BuildNetwork(%d, view %d, seed %d) views hash to %s, want %s",
				c.n, c.view, c.seed, got, c.want)
		}
	}
}

// TestShuffleMatchesRandShuffle checks the inline shuffle against
// rand.Shuffle: the same permutation, and the stream left at the same place.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 10000} {
		for seed := int64(1); seed <= 5; seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := make([]int, n), make([]int, n)
			for i := range got {
				got[i], want[i] = i, i
			}
			shuffle(a, got)
			b.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: permutations differ", n, seed)
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("n=%d seed=%d: next Int63 %d, want %d", n, seed, x, y)
			}
		}
	}
}

// TestLazySourceMatchesEager checks that a lazily seeded source yields, through
// rand.New, the stream of rand.NewSource on every derived draw, before and
// after a reseed.
func TestLazySourceMatchesEager(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		out := []int64{r.Int63(), int64(r.Uint64()), int64(r.Intn(1000)),
			int64(r.Float64() * (1 << 53))}
		for _, v := range r.Perm(20) {
			out = append(out, int64(v))
		}
		return out
	}
	for seed := int64(1); seed <= 5; seed++ {
		lazy := rand.New(&lazySource{seed: seed})
		eager := rand.New(rand.NewSource(seed))
		for round := 0; round < 2; round++ {
			if got, want := draws(lazy), draws(eager); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: lazy %v, eager %v", seed, round, got, want)
			}
		}
		// Reseed one lazy source after it has drawn and one before.
		unused := rand.New(&lazySource{seed: seed})
		for _, r := range []*rand.Rand{lazy, unused, eager} {
			r.Seed(seed * 31)
		}
		want := draws(eager)
		for _, r := range []*rand.Rand{lazy, unused} {
			if got := draws(r); !slices.Equal(got, want) {
				t.Fatalf("seed %d after Seed: lazy %v, eager %v", seed, got, want)
			}
		}
	}
}

// BenchmarkBuildNetwork10k builds sim_flood's network: R = 10,000 peers with
// sampled views of 500.
func BenchmarkBuildNetwork10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildNetwork(10_000, DefaultConfig(10_000), 500, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
