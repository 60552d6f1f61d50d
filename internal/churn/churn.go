// Package churn models the online/offline behaviour of peers.
//
// The paper assumes "peers can go offline at any time according to a random
// process" (§3) with expected online probability between 10% and 30% (§4.1).
// For the push-phase analysis the relevant per-round parameters are
//
//	σ  (sigma): probability that an online peer stays online in the next
//	           push round (the paper's p_off = 1−σ), and
//	p_on:      probability that an offline peer comes online in a round
//	           (neglected in the push analysis, exercised by the pull phase).
//
// Besides the Bernoulli per-round process the package provides a non-uniform
// per-peer process (§8 future work) and Schedule, which layers scheduled
// knockouts and revivals — the catastrophic failures of §4.1 — on any of them.
package churn

import (
	"fmt"
	"math"
	"math/rand"
)

// State is a peer's availability state.
type State bool

// Peer availability states.
const (
	Offline State = false
	Online  State = true
)

// Process decides, once per round and per peer, whether a peer changes
// availability. Implementations must be deterministic for a fixed *rand.Rand
// sequence so that simulations are reproducible.
type Process interface {
	// Next returns the peer's state for the coming round given its current
	// state. The peer index lets non-uniform processes differentiate peers.
	Next(peer int, current State, rng *rand.Rand) State
	// String describes the process for experiment logs.
	String() string
}

// Bernoulli is the paper's memoryless per-round model: an online peer stays
// online with probability Sigma; an offline peer comes online with
// probability POn.
type Bernoulli struct {
	// Sigma is the probability an online peer remains online next round.
	Sigma float64
	// POn is the probability an offline peer comes online next round.
	POn float64
}

var _ Process = Bernoulli{}

// Next implements Process.
func (b Bernoulli) Next(_ int, current State, rng *rand.Rand) State {
	if current == Online {
		return State(rng.Float64() < b.Sigma)
	}
	return State(rng.Float64() < b.POn)
}

// String implements Process.
func (b Bernoulli) String() string {
	return fmt.Sprintf("bernoulli(sigma=%g,p_on=%g)", b.Sigma, b.POn)
}

// StationaryOnline returns the long-run online fraction of the Bernoulli
// process, p_on / (p_on + 1 − σ). It returns NaN when the chain is absorbing
// in both states (σ=1 and p_on=0), where no stationary fraction is defined.
func (b Bernoulli) StationaryOnline() float64 {
	den := b.POn + (1 - b.Sigma)
	if den == 0 {
		return math.NaN()
	}
	return b.POn / den
}

// Static never changes availability. It models the paper's simplifying
// assumption σ=1, p_on=0 used in the scalability study (Fig. 5) and in
// Table 2.
type Static struct{}

var _ Process = Static{}

// Next implements Process.
func (Static) Next(_ int, current State, _ *rand.Rand) State { return current }

// String implements Process.
func (Static) String() string { return "static" }

// NonUniform assigns each peer its own Bernoulli parameters. It models the
// paper's future-work scenario (§8) of a relatively reliable backbone: a
// fraction of peers with high availability and a long tail of flaky ones.
type NonUniform struct {
	// Procs holds one Bernoulli process per peer. Peer i uses
	// Procs[i%len(Procs)], so a small palette can cover a large population.
	Procs []Bernoulli
}

var _ Process = NonUniform{}

// NewBackbone builds a NonUniform process in which a `backboneFrac` fraction
// of the population is highly available (sigmaHigh, pOnHigh) and the rest is
// flaky (sigmaLow, pOnLow). Peers are assigned deterministically by index so
// that experiments are reproducible.
func NewBackbone(n int, backboneFrac, sigmaHigh, pOnHigh, sigmaLow, pOnLow float64) NonUniform {
	if n <= 0 {
		n = 1
	}
	procs := make([]Bernoulli, n)
	cut := int(math.Round(backboneFrac * float64(n)))
	for i := range procs {
		if i < cut {
			procs[i] = Bernoulli{Sigma: sigmaHigh, POn: pOnHigh}
		} else {
			procs[i] = Bernoulli{Sigma: sigmaLow, POn: pOnLow}
		}
	}
	return NonUniform{Procs: procs}
}

// Next implements Process.
func (nu NonUniform) Next(peer int, current State, rng *rand.Rand) State {
	if len(nu.Procs) == 0 {
		return current
	}
	idx := peer % len(nu.Procs)
	if idx < 0 {
		idx += len(nu.Procs)
	}
	return nu.Procs[idx].Next(peer, current, rng)
}

// String implements Process.
func (nu NonUniform) String() string {
	return fmt.Sprintf("nonuniform(%d classes)", len(nu.Procs))
}

// Population tracks the availability of a set of peers and advances it one
// round at a time under a Process.
type Population struct {
	states []State
	proc   Process
	rng    *rand.Rand
	online int
}

// NewPopulation creates n peers, the first initialOnline of which start
// online (callers shuffle identities themselves if randomised placement is
// wanted; keeping it deterministic makes experiments reproducible).
func NewPopulation(n, initialOnline int, proc Process, rng *rand.Rand) (*Population, error) {
	if n <= 0 {
		return nil, fmt.Errorf("churn: population size %d must be positive", n)
	}
	if initialOnline < 0 || initialOnline > n {
		return nil, fmt.Errorf("churn: initial online %d out of range [0,%d]", initialOnline, n)
	}
	if proc == nil {
		return nil, fmt.Errorf("churn: nil process")
	}
	if rng == nil {
		return nil, fmt.Errorf("churn: nil rng")
	}
	p := &Population{
		states: make([]State, n),
		proc:   proc,
		rng:    rng,
		online: initialOnline,
	}
	for i := 0; i < initialOnline; i++ {
		p.states[i] = Online
	}
	return p, nil
}

// Len returns the population size.
func (p *Population) Len() int { return len(p.states) }

// Online reports whether peer i is online.
func (p *Population) Online(i int) bool { return bool(p.states[i]) }

// OnlineCount returns the number of online peers.
func (p *Population) OnlineCount() int { return p.online }

// OnlinePeers appends the indices of all online peers to dst and returns it.
func (p *Population) OnlinePeers(dst []int) []int {
	for i, s := range p.states {
		if s == Online {
			dst = append(dst, i)
		}
	}
	return dst
}

// SetOnline forces peer i's state (used by tests and by the live runtime to
// mirror real connectivity into a simulation).
func (p *Population) SetOnline(i int, online bool) {
	cur := p.states[i]
	next := State(online)
	if cur == next {
		return
	}
	p.states[i] = next
	if next == Online {
		p.online++
	} else {
		p.online--
	}
}

// Step advances every peer one round under the process. The round number is
// forwarded to processes that care (RoundAware). It returns the slice of
// peers that came online this round (for the pull phase) — the returned slice
// is valid until the next Step call.
func (p *Population) Step(round int) (cameOnline []int) {
	if ra, ok := p.proc.(RoundAware); ok {
		ra.BeginRound(round)
	}
	online := 0
	for i, cur := range p.states {
		next := p.proc.Next(i, cur, p.rng)
		if next == Online {
			online++
			if cur == Offline {
				cameOnline = append(cameOnline, i)
			}
		}
		p.states[i] = next
	}
	p.online = online
	return cameOnline
}
