package pf

import (
	"fmt"
	"math"
)

// Adaptive is the paper's self-tuning forwarding probability (§6). Instead of
// a fixed schedule it exploits two locally observable signals:
//
//   - the number of duplicate push messages a peer has received for the
//     current update: many duplicates mean the rumor has already spread
//     widely, so forwarding further is mostly wasted; and
//   - the normalised length L(t) of the partial flooding list carried by the
//     message, which estimates the global fraction of replicas the update has
//     already been *sent* to (feed-forward / speculation).
//
// The resulting probability is
//
//	PF = Base · DupDecay^duplicates · (1 − L)^ListExponent
//
// clamped to [Floor, 1]. With DupDecay = 1 and ListExponent = 0 it degrades
// to a constant function, so all of the paper's static schedules remain
// expressible.
//
// Adaptive is not safe for concurrent use. The engine observes and evaluates
// it only under its adapter's serialisation.
type Adaptive struct {
	// Base is the probability before any evidence of spread is observed.
	Base float64
	// DupDecay multiplies the probability per observed duplicate (0 < d ≤ 1).
	DupDecay float64
	// ListExponent controls sensitivity to the partial-list estimate.
	ListExponent float64
	// Floor is a lower bound keeping the rumor alive (like Fig. 5's +0.2).
	Floor float64

	duplicates int
	listFrac   float64
}

var _ Func = (*Adaptive)(nil)

// NewAdaptive returns an Adaptive function with the given base probability
// and sensible default sensitivities (halve per two duplicates, linear list
// sensitivity, floor 0.05).
func NewAdaptive(base float64) *Adaptive {
	return &Adaptive{
		Base:         base,
		DupDecay:     0.7,
		ListExponent: 1,
		Floor:        0.05,
	}
}

// ObserveDuplicate records one duplicate push received for the update.
func (a *Adaptive) ObserveDuplicate() { a.duplicates++ }

// ObserveListFraction records the normalised partial-list length L ∈ [0,1]
// seen on the most recent push message (monotone: keeps the maximum).
func (a *Adaptive) ObserveListFraction(l float64) {
	if l > a.listFrac {
		a.listFrac = clamp01(l)
	}
}

// Reset clears the observations, for reuse across updates.
func (a *Adaptive) Reset() { a.duplicates, a.listFrac = 0, 0 }

// Duplicates returns the number of duplicates observed so far.
func (a *Adaptive) Duplicates() int { return a.duplicates }

// P implements Func. The round number is unused: the evidence, not the
// clock, drives the decay.
func (a *Adaptive) P(int) float64 {
	p := a.Base
	if a.DupDecay > 0 && a.DupDecay < 1 {
		p *= math.Pow(a.DupDecay, float64(a.duplicates))
	}
	if a.ListExponent > 0 {
		p *= math.Pow(1-a.listFrac, a.ListExponent)
	}
	if p < a.Floor {
		p = a.Floor
	}
	return clamp01(p)
}

// String implements Func.
func (a *Adaptive) String() string {
	return fmt.Sprintf("adaptive(base=%g,dup=%g,list=%g,floor=%g)",
		a.Base, a.DupDecay, a.ListExponent, a.Floor)
}
