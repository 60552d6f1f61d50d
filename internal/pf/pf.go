// Package pf provides the forwarding-probability functions PF(t) that govern
// the push phase of the update protocol.
//
// PF(t) is the probability that a peer which first received an update in
// round t−1 forwards it in round t (§4.1). The paper explores constant
// functions, linear and geometric decay (Fig. 4), the affine-geometric
// 0.8·0.7^t+0.2 used in the scalability study (Fig. 5), the TTL behaviour of
// Gnutella (PF=1 for TTL rounds then 0), Haas et al.'s GOSSIP1(p,k) (pure
// flood for k rounds then probability p), and — the paper's novel
// contribution (§6) — *self-tuning* functions driven by local observations:
// the number of duplicate messages received and the length of the partial
// flooding list.
package pf

import (
	"fmt"
	"math"
)

// Func maps a push-round number t (0-based; the initiator's send is round 0)
// to a forwarding probability in [0, 1].
type Func interface {
	// P returns the forwarding probability for round t.
	P(t int) float64
	// String names the function as it appears in the paper's figure legends.
	String() string
}

// Constant is PF(t) = C for all rounds.
type Constant struct {
	// C is the constant probability.
	C float64
}

var _ Func = Constant{}

// P implements Func.
func (c Constant) P(int) float64 { return clamp01(c.C) }

// String implements Func.
func (c Constant) String() string { return fmt.Sprintf("PF=%g", c.C) }

// Always is PF(t) = 1 — pure constrained flooding. The value is shared: a
// Constant has no state, so handing out one boxed copy allocates nothing.
func Always() Func { return always }

var always Func = Constant{C: 1}

// Linear is the paper's "PF(t) = 1 − 0.1·t assuming t < 10" (Fig. 4),
// generalised to PF(t) = Start − Slope·t, clamped to [0, 1].
type Linear struct {
	// Start is the probability at t = 0.
	Start float64
	// Slope is subtracted per round.
	Slope float64
}

var _ Func = Linear{}

// P implements Func.
func (l Linear) P(t int) float64 { return clamp01(l.Start - l.Slope*float64(t)) }

// String implements Func.
func (l Linear) String() string { return fmt.Sprintf("PF(t)=%g-%g*t", l.Start, l.Slope) }

// Geometric is PF(t) = Base^t (the paper's 0.9^t, 0.7^t, 0.5^t in Fig. 4 and
// 0.8^t in Table 2).
type Geometric struct {
	// Base is the per-round decay factor.
	Base float64
}

var _ Func = Geometric{}

// P implements Func.
func (g Geometric) P(t int) float64 {
	if t < 0 {
		t = 0
	}
	return clamp01(math.Pow(g.Base, float64(t)))
}

// String implements Func.
func (g Geometric) String() string { return fmt.Sprintf("PF(t)=%g^t", g.Base) }

// AffineGeometric is PF(t) = A·B^t + C, the paper's 0.8·0.7^t + 0.2 used in
// the scalability experiment (Fig. 5). The floor C keeps the rumor alive in
// very large populations while the geometric part eliminates the early
// duplicate burst.
type AffineGeometric struct {
	// A scales the geometric component.
	A float64
	// B is the per-round decay factor.
	B float64
	// C is the probability floor.
	C float64
}

var _ Func = AffineGeometric{}

// P implements Func.
func (a AffineGeometric) P(t int) float64 {
	if t < 0 {
		t = 0
	}
	return clamp01(a.A*math.Pow(a.B, float64(t)) + a.C)
}

// String implements Func.
func (a AffineGeometric) String() string {
	return fmt.Sprintf("PF(t)=%g*%g^t+%g", a.A, a.B, a.C)
}

// TTL models Gnutella's time-to-live flooding: PF = 1 for Rounds rounds and 0
// afterwards ("its use of TTL effectively means that PF is 1 for TTL rounds,
// and 0 after that", §4.1).
type TTL struct {
	// Rounds is the TTL.
	Rounds int
}

var _ Func = TTL{}

// P implements Func.
func (g TTL) P(t int) float64 {
	if t < g.Rounds {
		return 1
	}
	return 0
}

// String implements Func.
func (g TTL) String() string { return fmt.Sprintf("TTL(%d)", g.Rounds) }

// Haas is GOSSIP1(p, k) from Haas, Halpern, Li (INFOCOM 2002): pure flooding
// (probability 1) for the first K rounds, then probability P1. The paper
// compares against G(0.8, 2) in Table 2 and notes its own scheme is a strict
// generalisation.
type Haas struct {
	// P1 is the forwarding probability after the flood prefix.
	P1 float64
	// K is the number of initial pure-flood rounds.
	K int
}

var _ Func = Haas{}

// P implements Func.
func (h Haas) P(t int) float64 {
	if t < h.K {
		return 1
	}
	return clamp01(h.P1)
}

// String implements Func.
func (h Haas) String() string { return fmt.Sprintf("G(%g,%d)", h.P1, h.K) }

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	case math.IsNaN(v):
		return 0
	default:
		return v
	}
}
