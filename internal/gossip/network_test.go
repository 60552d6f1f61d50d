package gossip

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// goldenNetworks are TestBuildNetworkGolden's cases. The digests were
// computed before construction learned to defer its per-peer costs, and the
// 10,000-peer one (sim_flood's shape) before views were drawn from a stream
// continuation: any change to the draws, their order or the view order
// fails.
var goldenNetworks = []struct {
	n, view int
	seed    int64
	want    string
}{
	{3000, 100, 1, "ce0bbf51723db143"},
	{3000, 100, 7, "49cd2370082d54ab"},
	{10_000, 500, 1, "1f2c13ce7cd243f4"},
	{40, 0, 1, "33e6ddd364934af8"},
	{2, 0, 5, "cf88bf6c26cc69cb"},
}

// TestBuildNetworkGolden pins every peer's initial view, in view order, for
// complete and sampled construction.
func TestBuildNetworkGolden(t *testing.T) {
	for _, c := range goldenNetworks {
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

// TestGoldenNetworksReject checks that the sampled golden networks make
// rejected draws in Shuffle's multiply-and-reject, so that their digests pin
// that branch too. It counts with rand.Rand, independently of stream.
func TestGoldenNetworksReject(t *testing.T) {
	rejects := 0
	for _, c := range goldenNetworks {
		if c.view <= 0 || c.view >= c.n-1 {
			continue
		}
		rng := rand.New(rand.NewSource(c.seed))
		for peer := 0; peer < c.n; peer++ {
			for i := c.n - 1; i > 0; i-- {
				n := uint64(i + 1)
				for uint32(uint64(rng.Uint32())*n) < -uint32(n)%uint32(n) {
					rejects++
				}
			}
		}
	}
	if rejects == 0 {
		t.Error("the sampled golden networks draw no rejected value")
	}
	t.Logf("%d rejected draws", rejects)
}

// Uint64 returns the stream's next output, which should be the one
// rand.NewSource(seed).(rand.Source64) returns.
func (s *stream) Uint64() uint64 {
	if s.pos == len(s.ring) {
		s.refill()
		s.pos = 0
	}
	s.pos++
	return s.ring[s.pos-1]
}

// TestStreamMatchesSource checks stream's raw outputs against the source it
// continues, across many refills of the ring.
func TestStreamMatchesSource(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		s, src := newStream(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1_000_000; i++ {
			if got, want := s.Uint64(), src.Uint64(); got != want {
				t.Fatalf("seed %d output %d: %d, want %d", seed, i, got, want)
			}
		}
	}
}

// TestShuffleMatchesRandShuffle checks the stream's shuffle against
// rand.Shuffle on the same seed: the same permutation twice in a row, so the
// second also checks that the stream continued where Shuffle left its
// source.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 607, 608, 10000} {
		for seed := int64(1); seed <= 5; seed++ {
			a, b := newStream(seed), rand.New(rand.NewSource(seed))
			got, want := make([]int32, n), make([]int32, n)
			for i := range got {
				got[i], want[i] = int32(i), int32(i)
			}
			for round := 0; round < 2; round++ {
				a.shuffle(got)
				b.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d seed=%d shuffle %d: permutations differ", n, seed, round)
				}
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
