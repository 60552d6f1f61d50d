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
// writer's PRNG is seeded at its first draw. A sampled view costs a full
// shuffle of all n ids (stream), most of the construction at n = 10,000.
func BuildNetwork(n int, cfg Config, viewSize int, seed int64) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gossip: network size %d must be positive", n)
	}
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
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng, full := newStream(seed), viewSize <= 0 || viewSize >= n-1
	if full {
		viewSize = n // Bootstrap skips self
	}
	view := make([]int, 0, viewSize+1)
	for i, p := range peers {
		if !full {
			// A full shuffle per peer: the draws are kept so that every
			// simulated network stays the one its seed has always built.
			rng.shuffle(perm)
		}
		view = view[:0]
		for _, id := range perm[:viewSize] {
			view = append(view, int(id))
		}
		if !full && slices.Contains(perm[:viewSize], int32(i)) {
			view = append(view, int(perm[viewSize]))
		}
		p.eng.Bootstrap(view)
	}
	return &Network{Peers: peers, Nodes: nodes}, nil
}

// stream continues rand.NewSource(seed)'s outputs, x(n) = x(n−607) + x(n−273)
// mod 2⁶⁴, from the first 607 (the source's whole state), a ring at a time: a
// draw is a load, not a call through rand.Rand into the source.
type stream struct {
	ring [607]uint64 // x(n) at n mod 607
	pos  int         // index of the next output; 607 means refill first
}

func newStream(seed int64) *stream {
	src, s := rand.NewSource(seed).(rand.Source64), &stream{}
	for i := range s.ring {
		s.ring[i] = src.Uint64()
	}
	return s
}

// refill computes the next 607 outputs: x(n−273) is at i+334, then at i−273.
func (s *stream) refill() {
	for i := 0; i < 273; i++ {
		s.ring[i] += s.ring[i+334]
	}
	for i := 273; i < 607; i++ {
		s.ring[i] += s.ring[i-273]
	}
}

// shuffle draws what rand.Rand.Shuffle(len(p), swap) would, for len(p) < 2³¹:
// Lemire's multiply-and-reject over Rand.Uint32, bits 31–62 of an output.
func (s *stream) shuffle(p []int32) {
	pos := s.pos
	draw := func(n uint32) uint64 {
		if pos == len(s.ring) {
			s.refill()
			pos = 0
		}
		pos++
		return uint64(uint32(s.ring[pos-1]>>31)) * uint64(n)
	}
	for i := len(p) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := draw(n)
		if low := uint32(prod); low < n {
			for thresh := -n % n; low < thresh; low = uint32(prod) {
				prod = draw(n)
			}
		}
		j := prod >> 32
		p[i], p[j] = p[j], p[i]
	}
	s.pos = pos
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
