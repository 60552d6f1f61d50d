package churn

import (
	"fmt"
	"math/rand"
	"sort"
)

// RoundAware is implemented by availability processes whose behaviour depends
// on the round being computed, such as Schedule. Population.Step calls
// BeginRound once per round before the per-peer Next calls.
type RoundAware interface {
	BeginRound(round int)
}

// EventSource is implemented by processes with scheduled interventions.
// Simulation drivers consult LastEventRound before declaring a quiet run
// finished: an idle network with a revival still scheduled is not done.
type EventSource interface {
	// LastEventRound returns the round of the last scheduled event, or -1
	// when there is none.
	LastEventRound() int
}

// EventKind classifies a scheduled availability event.
type EventKind int

// Scheduled event kinds.
const (
	// Knockout forces a fraction of the peers that would be online this
	// round offline — the catastrophic-failure injector of §4.1, promoted
	// from a test helper to a first-class event source.
	Knockout EventKind = iota + 1
	// Revive forces a fraction of the peers that would be offline this
	// round online — mass recovery after an outage.
	Revive
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case Knockout:
		return "knockout"
	case Revive:
		return "revive"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduled availability intervention.
type Event struct {
	// Round is when the event applies.
	Round int
	// Kind selects the intervention.
	Kind EventKind
	// Fraction of the affected peers hit, chosen by independent per-peer
	// coin flips (1 hits everyone).
	Fraction float64
}

// Schedule wraps a base Process and applies scheduled events on top of it:
// catastrophic knockouts, mass revivals, and any sequence thereof. It is the
// event source the fault-injection scenarios use for correlated availability
// faults, which the paper's independent per-peer churn model cannot express.
//
// Events at the same round apply in the order they were given, each seeing
// the state left by the previous one — a Revive followed by a Knockout at the
// same round is a restart into a storm, not a no-op.
type Schedule struct {
	base   Process
	events []Event
	round  int
}

var (
	_ Process     = (*Schedule)(nil)
	_ RoundAware  = (*Schedule)(nil)
	_ EventSource = (*Schedule)(nil)
)

// NewSchedule validates the events, orders them by round (preserving the
// given order within a round), and returns the composite process.
func NewSchedule(base Process, events ...Event) (*Schedule, error) {
	if base == nil {
		return nil, fmt.Errorf("churn: schedule needs a base process")
	}
	for i, ev := range events {
		switch {
		case ev.Round < 0:
			return nil, fmt.Errorf("churn: event %d at negative round %d", i, ev.Round)
		case ev.Fraction < 0 || ev.Fraction > 1:
			return nil, fmt.Errorf("churn: event %d fraction %g out of [0,1]", i, ev.Fraction)
		case ev.Kind != Knockout && ev.Kind != Revive:
			return nil, fmt.Errorf("churn: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	return &Schedule{base: base, events: sorted}, nil
}

// Events returns the schedule's events in application order.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// LastEventRound implements EventSource. The events are round-sorted, so it
// is the last entry's round; base-process events (a Schedule stacked on
// another) count too.
func (s *Schedule) LastEventRound() int {
	last := -1
	if len(s.events) > 0 {
		last = s.events[len(s.events)-1].Round
	}
	if es, ok := s.base.(EventSource); ok && es.LastEventRound() > last {
		last = es.LastEventRound()
	}
	return last
}

// BeginRound implements RoundAware, forwarding to the base process when it is
// round-aware too.
func (s *Schedule) BeginRound(round int) {
	s.round = round
	if ra, ok := s.base.(RoundAware); ok {
		ra.BeginRound(round)
	}
}

// Next implements Process: the base process decides first, then every event
// scheduled for the current round intervenes in order.
func (s *Schedule) Next(peer int, current State, rng *rand.Rand) State {
	next := s.base.Next(peer, current, rng)
	// The events are round-sorted; scan the (short) list for this round's
	// entries so same-round ordering follows the constructor's order.
	for _, ev := range s.events {
		if ev.Round != s.round {
			continue
		}
		switch ev.Kind {
		case Knockout:
			if next == Online && rng.Float64() < ev.Fraction {
				next = Offline
			}
		case Revive:
			if next == Offline && rng.Float64() < ev.Fraction {
				next = Online
			}
		}
	}
	return next
}

// String implements Process.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule(base=%s,events=%d)", s.base, len(s.events))
}
