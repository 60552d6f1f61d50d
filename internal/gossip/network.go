package gossip

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/p2pgossip/update/internal/simnet"
)

// Network bundles a population of gossip peers with its simulation nodes.
type Network struct {
	// Peers are the protocol instances, indexed by peer id.
	Peers []*Peer
	// Nodes is the same population typed for simnet.Config.
	Nodes []simnet.Node
}

// BuildNetwork constructs n peers sharing one configuration and wires their
// membership views.
//
// viewSize controls how much of the replica set each peer knows initially:
// ≤0 or ≥n−1 gives complete knowledge (the analytical model's assumption
// that push targets are uniform over all R replicas); smaller values give
// each peer a uniform random sample, with the partial lists growing views
// over time (name-dropper).
//
// Construction pays up front only for the views: each is seeded whole
// (engine.Bootstrap) and indexed at its peer's first lookup, and each
// writer's PRNG is seeded at its first draw.
func BuildNetwork(n int, cfg Config, viewSize int, seed int64) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gossip: network size %d must be positive", n)
	}
	rng := rand.New(rand.NewSource(seed))
	peers := make([]*Peer, n)
	nodes := make([]simnet.Node, n)
	for i := 0; i < n; i++ {
		p, err := NewPeer(i, cfg)
		if err != nil {
			return nil, fmt.Errorf("gossip: peer %d: %w", i, err)
		}
		peers[i] = p
		nodes[i] = p
	}
	full := viewSize <= 0 || viewSize >= n-1
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i, p := range peers {
		view := perm // Bootstrap skips self
		if !full {
			// A full shuffle per peer: the draws are kept so that every
			// simulated network stays the one its seed has always built.
			shuffle(rng, perm)
			if view = perm[:viewSize]; slices.Contains(view, i) {
				view = perm[:viewSize+1]
			}
		}
		p.eng.Bootstrap(view)
	}
	return &Network{Peers: peers, Nodes: nodes}, nil
}

// shuffle is rng.Shuffle(len(s), swap-in-s) without the per-swap call: the
// same draws in the same order, leaving s and rng's stream exactly as
// Shuffle would. It holds for len(s) < 2³¹, where Shuffle draws through
// its unexported int31n (Lemire's multiply-and-reject over Uint32).
func shuffle(rng *rand.Rand, s []int) {
	for i := len(s) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			for thresh := -n % n; low < thresh; low = uint32(prod) {
				prod = uint64(rng.Uint32()) * uint64(n)
			}
		}
		j := int(prod >> 32)
		s[i], s[j] = s[j], s[i]
	}
}

// lazySource is a rand.Source64 that seeds rand.NewSource(seed) at its first
// draw. Through rand.New it yields the same stream as the eager source, but
// a writer that never publishes never pays for the seeded state (~4.9 KB).
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) get() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.get().Int63() }
func (s *lazySource) Uint64() uint64  { return s.get().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// CountAware returns how many peers have applied the given update.
func (n *Network) CountAware(updateID string) int {
	count := 0
	for _, p := range n.Peers {
		if p.HasUpdate(updateID) {
			count++
		}
	}
	return count
}

// CountAwareOnline returns how many currently online peers have applied the
// update — the paper's F_aware numerator.
func (n *Network) CountAwareOnline(updateID string, en *simnet.Engine) int {
	count := 0
	for i, p := range n.Peers {
		if en.Population().Online(i) && p.HasUpdate(updateID) {
			count++
		}
	}
	return count
}

// Converged reports whether every peer's store equals peer 0's store.
func (n *Network) Converged() bool {
	if len(n.Peers) == 0 {
		return true
	}
	first := n.Peers[0].Store()
	for _, p := range n.Peers[1:] {
		if !first.Equal(p.Store()) {
			return false
		}
	}
	return true
}
