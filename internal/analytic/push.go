// Package analytic implements the paper's analytical model of the push
// phase (§4.2), the pull phase (§4.3), and the flooding baselines (§5.6).
//
// The original authors evaluated the recursive functions with a C program;
// this package is that evaluator, reimplemented and documented. All of the
// paper's figures (1–5) and Table 2 derive from the recursion below, which
// uses the notation of Table 1 of the paper:
//
//	R           cardinality of the replica set
//	R_on(0)     number of replicas online when the update starts
//	σ (sigma)   probability an online peer stays online in the next round
//	f_r         fraction of R to which a peer forwards an update
//	PF(t)       probability that a peer which received the update in round
//	            t−1 forwards it in round t
//	L(t)        normalised length of the partial flooding list in round t
//	γ           bytes per replica-list entry
//
// Recursion (derivation in DESIGN.md §4; the σ of the shrinking uninformed
// pool cancels in the fraction-based formulation):
//
//	ΔF(0)   = f_r                     M(0) = R·f_r
//	push(t) = R_on(0)·ΔF(t−1)·σ·PF(t)
//	M(t)    = push(t)·R·f_r·(1−f_r)^t          (with partial list)
//	        = push(t)·R·f_r                    (without partial list)
//	ΔF(t)   = (1−F(t))·(1−(1−f_r)^push(t))
//	F(t+1)  = min(1, F(t)+ΔF(t))
//	L(t)    = 1−(1−f_r)^(t+1)
//
// F(t) — the paper's F_aware — is the fraction of the *initial* online
// population aware of the update at the beginning of round t; the paper
// normalises all message counts by R_on(0) and notes that ignoring peers
// going offline mid-push makes the analysis pessimistic (§5).
package analytic

import (
	"fmt"
	"math"

	"github.com/p2pgossip/update/internal/pf"
)

// EntryBytes is γ, the bytes to describe one replica in a partial list (the
// paper suggests ~10: address + port).
const EntryBytes = 10

// DefaultMaxRounds bounds the push recursion when the rumor dies out before
// full awareness (e.g. Fig. 1(a)'s tiny initial populations).
const DefaultMaxRounds = 200

// PushParams parameterises one analytical evaluation of the push phase.
type PushParams struct {
	// R is the total number of replicas.
	R int
	// ROn0 is the number of replicas online at round 0.
	ROn0 int
	// Sigma is the per-round probability of staying online.
	Sigma float64
	// Fr is the fanout fraction f_r; each push targets R·Fr replicas.
	Fr float64
	// PF is the forwarding-probability schedule. Nil means PF(t) = 1.
	PF pf.Func
	// PartialList enables the paper's flooding-list optimisation, which
	// reduces round-t messages by the factor (1−f_r)^t.
	PartialList bool
	// ListThreshold is the normalised cap L_thr on the partial-list length
	// (§4.2). Zero or ≥1 means "no threshold". With a threshold, rounds
	// whose untrimmed L(t) would exceed L_thr pay extra duplicate messages.
	ListThreshold float64
	// UpdateBytes is the payload size U used for message-size accounting.
	UpdateBytes int
	// MaxRounds bounds the recursion; 0 means DefaultMaxRounds.
	MaxRounds int
	// Epsilon terminates the recursion when the expected number of pushers
	// falls below it. Zero means 1e-6.
	Epsilon float64
}

// Validate reports whether the parameters are usable.
func (p PushParams) Validate() error {
	switch {
	case p.R <= 0:
		return fmt.Errorf("analytic: R = %d must be positive", p.R)
	case p.ROn0 < 0 || p.ROn0 > p.R:
		return fmt.Errorf("analytic: ROn0 = %d out of range [0,%d]", p.ROn0, p.R)
	case p.Sigma < 0 || p.Sigma > 1:
		return fmt.Errorf("analytic: sigma = %g out of [0,1]", p.Sigma)
	case p.Fr < 0 || p.Fr > 1:
		return fmt.Errorf("analytic: f_r = %g out of [0,1]", p.Fr)
	case p.ListThreshold < 0:
		return fmt.Errorf("analytic: L_thr = %g negative", p.ListThreshold)
	default:
		return nil
	}
}

// Fanout returns the per-push target count R·f_r.
func (p PushParams) Fanout() float64 { return float64(p.R) * p.Fr }

// PushRound is the state of the analytical recursion after one round.
type PushRound struct {
	// T is the round number (0 = the initiator's send).
	T int
	// Messages is M(t), the expected messages sent in this round (including
	// messages to offline replicas).
	Messages float64
	// CumMessages is the running total of messages through this round.
	CumMessages float64
	// Pushers is the expected number of peers that forwarded this round.
	Pushers float64
	// DeltaAware is ΔF_aware(t), the increment in the aware fraction.
	DeltaAware float64
	// Aware is F_aware(t+1), the aware fraction after this round.
	Aware float64
	// ListLen is L(t), the normalised partial-list length carried this
	// round (zero when the partial list is disabled).
	ListLen float64
	// MessageBytes is S_M(t), the size of one message in this round.
	MessageBytes float64
}

// PushResult is the full trajectory of one analytical push evaluation.
type PushResult struct {
	Params PushParams
	Rounds []PushRound
}

// TotalMessages returns the total expected message count of the push phase.
func (r PushResult) TotalMessages() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return r.Rounds[len(r.Rounds)-1].CumMessages
}

// TotalBytes returns the total expected push-phase traffic in bytes: the
// per-round product of expected messages M(t) and message size S_M(t),
// summed over the recursion. It is linear in Params.UpdateBytes, so callers
// can evaluate once with UpdateBytes = 0 to isolate the flooding-list term
// (γ·R·L(t)) and add U·TotalMessages per payload size U.
func (r PushResult) TotalBytes() float64 {
	total := 0.0
	for _, round := range r.Rounds {
		total += round.Messages * round.MessageBytes
	}
	return total
}

// MessagesPerOnlinePeer is the paper's headline metric: total messages
// divided by the initial online population.
func (r PushResult) MessagesPerOnlinePeer() float64 {
	if r.Params.ROn0 == 0 {
		return 0
	}
	return r.TotalMessages() / float64(r.Params.ROn0)
}

// FinalAware returns the final F_aware.
func (r PushResult) FinalAware() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return r.Rounds[len(r.Rounds)-1].Aware
}

// NumRounds returns the number of push rounds executed (the paper's latency
// metric).
func (r PushResult) NumRounds() int { return len(r.Rounds) }

// RoundsToAware returns the first round t at which F_aware reaches the given
// fraction, or −1 if it never does.
func (r PushResult) RoundsToAware(frac float64) int {
	for _, round := range r.Rounds {
		if round.Aware >= frac {
			return round.T
		}
	}
	return -1
}

// Push evaluates the analytical recursion.
func Push(p PushParams) (PushResult, error) {
	if err := p.Validate(); err != nil {
		return PushResult{}, err
	}
	forward := p.PF
	if forward == nil {
		forward = pf.Always()
	}
	maxRounds := p.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	eps := p.Epsilon
	if eps <= 0 {
		eps = 1e-6
	}

	res := PushResult{Params: p}
	if p.ROn0 == 0 || p.Fr == 0 {
		return res, nil
	}

	rOn0 := float64(p.ROn0)
	fanout := p.Fanout()
	gamma := float64(EntryBytes)

	// Round 0: the initiator sends to R·f_r replicas.
	aware := math.Min(1, p.Fr)
	delta := aware
	listLen := listLenAt(0, p)
	round := PushRound{
		T:            0,
		Messages:     fanout,
		CumMessages:  fanout,
		Pushers:      1,
		DeltaAware:   delta,
		Aware:        aware,
		ListLen:      listLen,
		MessageBytes: float64(p.UpdateBytes) + gamma*float64(p.R)*listLen,
	}
	res.Rounds = append(res.Rounds, round)

	for t := 1; t < maxRounds; t++ {
		pushers := rOn0 * delta * p.Sigma * forward.P(t)
		if pushers < eps || aware >= 1-1e-12 {
			break
		}
		carriedList := 0.0
		dupFactor := 1.0
		if p.PartialList {
			carriedList = listLenAt(t-1, p)
			dupFactor = 1 - carriedList
		}
		messages := pushers * fanout * dupFactor
		newDelta := (1 - aware) * (1 - math.Pow(1-p.Fr, pushers))
		if aware+newDelta > 1 {
			newDelta = 1 - aware // the paper's ceiling adjustment
		}
		aware += newDelta
		listLen = listLenAt(t, p)
		round = PushRound{
			T:            t,
			Messages:     messages,
			CumMessages:  res.Rounds[len(res.Rounds)-1].CumMessages + messages,
			Pushers:      pushers,
			DeltaAware:   newDelta,
			Aware:        aware,
			ListLen:      listLen,
			MessageBytes: float64(p.UpdateBytes) + gamma*float64(p.R)*listLen,
		}
		res.Rounds = append(res.Rounds, round)
		delta = newDelta
	}
	return res, nil
}

// ListLen returns the closed-form normalised partial-list length
// L(t) = 1 − (1−f_r)^(t+1) for an unthresholded list (§4.2, proved by
// induction in the paper).
func ListLen(t int, fr float64) float64 {
	if t < 0 {
		return 0
	}
	return 1 - math.Pow(1-fr, float64(t+1))
}

// ListLenRecursive returns L(t) via the paper's recursion
// L(t+1) = f_r + L(t) − f_r·L(t); it must equal the closed form (property
// tested).
func ListLenRecursive(t int, fr float64) float64 {
	l := fr // L(0): the initiator's list holds the f_r·R targets
	for i := 0; i < t; i++ {
		l = fr + l - fr*l
	}
	if t < 0 {
		return 0
	}
	return l
}

// listLenAt applies the optional threshold L_thr to the closed form.
func listLenAt(t int, p PushParams) float64 {
	if !p.PartialList {
		return 0
	}
	l := ListLen(t, p.Fr)
	if p.ListThreshold > 0 && p.ListThreshold < 1 && l > p.ListThreshold {
		return p.ListThreshold
	}
	return l
}
