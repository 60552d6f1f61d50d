package simnet

import (
	"fmt"
	"sort"
)

// EdgeFault describes the injected behaviour of one directed edge — or, as
// the plane's default, of every edge without a specific override. The zero
// value is a perfect link.
type EdgeFault struct {
	// Drop is an independent per-message loss probability.
	Drop float64
	// Delay is extra delivery latency in rounds on top of the engine's
	// one-round baseline.
	Delay int
	// Jitter adds a uniform extra latency in [0, Jitter] rounds per message.
	Jitter int
	// Reorder randomises the message's delivery position within its arrival
	// round, so a burst over this edge arrives permuted rather than in send
	// order.
	Reorder bool
}

// validate reports whether the fault is usable.
func (f EdgeFault) validate() error {
	switch {
	case f.Drop < 0 || f.Drop > 1:
		return fmt.Errorf("simnet: edge drop %g out of [0,1]", f.Drop)
	case f.Delay < 0:
		return fmt.Errorf("simnet: edge delay %d negative", f.Delay)
	case f.Jitter < 0:
		return fmt.Errorf("simnet: edge jitter %d negative", f.Jitter)
	default:
		return nil
	}
}

// Partition is a scheduled network cut between two peer sets. Messages
// crossing an active cut are dropped at send time (and counted under
// MetricMessagesDropped), so in-flight traffic sent before the cut still
// arrives — the cut severs links, it does not eat queues.
type Partition struct {
	// From is the first round the cut is active.
	From int
	// Until is the first round after the cut heals; 0 or negative means the
	// cut never heals.
	Until int
	// A and B are the two peer sets. Peers in neither set are unaffected.
	A, B []int
	// OneWay blocks only A→B traffic (an asymmetric partition, e.g. a
	// half-broken NAT); otherwise both directions are blocked.
	OneWay bool

	inA, inB map[int]bool
}

// active reports whether the cut is in force at the given round.
func (p *Partition) active(round int) bool {
	return round >= p.From && (p.Until <= 0 || round < p.Until)
}

// severs reports whether the cut blocks a message from → to.
func (p *Partition) severs(from, to int) bool {
	if p.inA[from] && p.inB[to] {
		return true
	}
	return !p.OneWay && p.inB[from] && p.inA[to]
}

// CrashEvent schedules a process crash: at round At the peer is forced
// offline (overriding the churn process) and, if it implements Restartable,
// loses its volatile state; at RestartAt it recovers from its durable
// snapshot and comes back online.
type CrashEvent struct {
	// Peer is the crashing peer index.
	Peer int
	// At is the crash round.
	At int
	// RestartAt is the restart round; 0 or negative means the peer never
	// returns.
	RestartAt int
}

// FaultPlane is a declarative schedule of injected faults for one simulation:
// per-edge loss, latency and reordering, scheduled (and healing) partitions,
// and crash/restart events. Attach one via Config.Faults; the engine consults
// it on every send and at every round boundary. All randomness is drawn from
// the engine's seeded source, so a faulted run is exactly as reproducible as
// a clean one.
type FaultPlane struct {
	def     EdgeFault
	hasDef  bool
	edges   map[[2]int]EdgeFault
	parts   []*Partition
	crashes []CrashEvent
	sealed  bool
}

// NewFaultPlane returns an empty fault plane.
func NewFaultPlane() *FaultPlane {
	return &FaultPlane{edges: make(map[[2]int]EdgeFault)}
}

// SetDefault applies f to every edge without a specific override. It returns
// the plane for chaining.
func (fp *FaultPlane) SetDefault(f EdgeFault) *FaultPlane {
	fp.def, fp.hasDef = f, true
	return fp
}

// SetEdge applies f to the directed edge from → to, overriding the default.
// It returns the plane for chaining.
func (fp *FaultPlane) SetEdge(from, to int, f EdgeFault) *FaultPlane {
	fp.edges[[2]int{from, to}] = f
	return fp
}

// AddPartition schedules a cut. It returns the plane for chaining.
func (fp *FaultPlane) AddPartition(p Partition) *FaultPlane {
	fp.parts = append(fp.parts, &p)
	return fp
}

// AddCrash schedules a crash at round `at` with a restart at `restartAt`
// (≤ 0: the peer never returns). It returns the plane for chaining.
func (fp *FaultPlane) AddCrash(peer, at, restartAt int) *FaultPlane {
	fp.crashes = append(fp.crashes, CrashEvent{Peer: peer, At: at, RestartAt: restartAt})
	return fp
}

// seal validates the plane against a population of n peers and builds the
// lookup structures. Engines call it once at construction; sealing twice is
// a no-op, so a plane must not be shared between engines.
func (fp *FaultPlane) seal(n int) error {
	if fp.sealed {
		return nil
	}
	if fp.hasDef {
		if err := fp.def.validate(); err != nil {
			return err
		}
	}
	for edge, f := range fp.edges {
		if err := f.validate(); err != nil {
			return err
		}
		for _, peer := range edge {
			if peer < 0 || peer >= n {
				return fmt.Errorf("simnet: edge fault peer %d out of range [0,%d)", peer, n)
			}
		}
	}
	for i, p := range fp.parts {
		if p.Until > 0 && p.Until <= p.From {
			return fmt.Errorf("simnet: partition %d heals at %d before starting at %d",
				i, p.Until, p.From)
		}
		p.inA = make(map[int]bool, len(p.A))
		p.inB = make(map[int]bool, len(p.B))
		for _, peer := range p.A {
			if peer < 0 || peer >= n {
				return fmt.Errorf("simnet: partition %d peer %d out of range [0,%d)", i, peer, n)
			}
			p.inA[peer] = true
		}
		for _, peer := range p.B {
			if peer < 0 || peer >= n {
				return fmt.Errorf("simnet: partition %d peer %d out of range [0,%d)", i, peer, n)
			}
			if p.inA[peer] {
				return fmt.Errorf("simnet: partition %d peer %d on both sides", i, peer)
			}
			p.inB[peer] = true
		}
	}
	for i, c := range fp.crashes {
		switch {
		case c.Peer < 0 || c.Peer >= n:
			return fmt.Errorf("simnet: crash %d peer %d out of range [0,%d)", i, c.Peer, n)
		case c.At < 0:
			return fmt.Errorf("simnet: crash %d at negative round %d", i, c.At)
		case c.RestartAt > 0 && c.RestartAt <= c.At:
			return fmt.Errorf("simnet: crash %d restarts at %d, not after crash at %d",
				i, c.RestartAt, c.At)
		}
	}
	sort.SliceStable(fp.crashes, func(i, j int) bool {
		return fp.crashes[i].At < fp.crashes[j].At
	})
	// A peer's crash windows must not overlap: a second crash while it is
	// already down, or after a crash it never restarts from, would execute a
	// schedule other than the declared one.
	lastWindow := make(map[int]CrashEvent, len(fp.crashes))
	for _, c := range fp.crashes {
		if prev, ok := lastWindow[c.Peer]; ok {
			if prev.RestartAt <= 0 {
				return fmt.Errorf("simnet: peer %d crashes at %d but never restarts from its crash at %d",
					c.Peer, c.At, prev.At)
			}
			if c.At < prev.RestartAt {
				return fmt.Errorf("simnet: peer %d crash windows overlap: [%d,%d) and crash at %d",
					c.Peer, prev.At, prev.RestartAt, c.At)
			}
		}
		lastWindow[c.Peer] = c
	}
	fp.sealed = true
	return nil
}

// edgeFault returns the fault configured for from → to, falling back to the
// plane default.
func (fp *FaultPlane) edgeFault(from, to int) (EdgeFault, bool) {
	if f, ok := fp.edges[[2]int{from, to}]; ok {
		return f, true
	}
	return fp.def, fp.hasDef
}

// severed reports whether an active partition blocks from → to at round.
func (fp *FaultPlane) severed(from, to, round int) bool {
	for _, p := range fp.parts {
		if p.active(round) && p.severs(from, to) {
			return true
		}
	}
	return false
}

// LastEventRound returns the largest round at which a scheduled event
// (partition start or heal, crash, restart) fires; -1 for an event-free
// plane. Runners use it to avoid declaring a simulation finished while the
// plane still has scheduled interventions.
func (fp *FaultPlane) LastEventRound() int {
	last := -1
	for _, p := range fp.parts {
		if p.From > last {
			last = p.From
		}
		if p.Until > last {
			last = p.Until
		}
	}
	for _, c := range fp.crashes {
		if c.At > last {
			last = c.At
		}
		if c.RestartAt > last {
			last = c.RestartAt
		}
	}
	return last
}
