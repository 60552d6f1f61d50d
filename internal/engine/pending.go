package engine

import (
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// MaxPendingAux caps the messages a Pending holds that cannot merge (query
// traffic, already-rendered pull answers). They carry request/response
// semantics; beyond the cap the oldest is dropped and reported — queries time
// out and retry at the protocol layer — so even the unmergeable part of
// pending state is bounded.
const MaxPendingAux = 1024

// Byte estimates for the pending classes that carry no update payload.
const (
	pendingRefBytes  = 24 // one store.Ref: an ack, or one slot of the push order index
	pendingFlagBytes = 16
	pendingAuxBase   = 64
)

// pendingOrderSlack is how far the push order index may outgrow twice the
// live pushes before Add compacts it. Compaction is a filter over the index,
// so a run of overwrites pays O(1) amortised per deposit.
const pendingOrderSlack = 32

// pushEntry is one coalesced outbound push: the update and the round
// counter it would have carried. The flooding list is deliberately absent —
// the adapter renders it from live engine state (RenderPush) when the push
// leaves.
type pushEntry struct {
	u store.Update
	t int
}

// Pending is everything one replica owes one destination, in mergeable form:
// the data half of a coalescing sender (the weave GossipSender shape — merging
// is a property of the data, the sender is only a mailbox). While a link is
// busy or out of budget, outbound messages are Added instead of queued:
//
//   - pushes dedup by store.Ref, and the newest version of a key wins in both
//     directions — a newcomer displaces the pending versions it dominates and
//     is absorbed by a pending version that dominates it; concurrent branches
//     coexist (a gap this opens at the receiver is repaired by ordinary pull
//     anti-entropy);
//   - acks are a set;
//   - the pull request is a flag;
//   - deferred pull answers (Message.IsPullIntent) collapse to the pointwise-
//     minimum requester clock, so one rendered answer covers every
//     outstanding request;
//   - everything else waits in arrival order, at most MaxPendingAux deep.
//
// Pending state is therefore O(live state) per destination, not O(traffic),
// and nothing is rendered at deposit time: Pop returns pushes without their
// flooding list, the pull request without its clock and the pull answer as an
// intent, for the adapter to bind (RenderPush, store.Clock, AnswerPull) at
// the moment of transmission — a slow consumer receives the newest superset,
// never a replay of stale frames.
//
// The zero value is an empty Pending. It is not safe for concurrent use.
type Pending[ID comparable] struct {
	// pushes holds the coalesced pushes by update identity; byKey lists each
	// key's refs so a newer version finds the ones it displaces in
	// O(branches), pruned of refs no longer pending at the key's next
	// deposit. order is the drain order, first deposit first; displaced refs
	// stay in it until Pop skips them or Add compacts it.
	pushes map[store.Ref]pushEntry
	byKey  map[string][]store.Ref
	order  queue[store.Ref]

	acks   []store.Ref
	ackSet map[store.Ref]struct{}

	// pullReq records that an anti-entropy request is owed; its clock is read
	// from the store at send time, so later is only ever better.
	pullReq bool

	// pullClock is the pointwise minimum of every outstanding requester clock
	// (an origin absent from any of them counts as zero and drops out);
	// pullPeers is the newest membership sample to piggyback.
	pullResp  bool
	pullClock version.Clock
	pullPeers []ID

	aux []Message[ID]

	// bytes estimates the footprint of everything above except order.
	bytes int
}

// Len returns the number of distinct pending items: coalesced pushes, acks,
// unmergeable messages, and one each for an owed pull request and pull answer.
func (p *Pending[ID]) Len() int {
	n := len(p.pushes) + len(p.acks) + len(p.aux)
	if p.pullReq {
		n++
	}
	if p.pullResp {
		n++
	}
	return n
}

// Bytes estimates the memory the pending state holds, the push order index
// included.
func (p *Pending[ID]) Bytes() int {
	return p.bytes + p.order.len()*pendingRefBytes
}

// Reset empties p for reuse. The memory its maps and push order index grew
// is kept, so a sender that alternates two Pendings stops regrowing them for
// every batch.
func (p *Pending[ID]) Reset() {
	clear(p.pushes)
	clear(p.byKey)
	p.order.reset()
	p.acks = p.acks[:0]
	clear(p.ackSet)
	p.pullReq, p.pullResp, p.pullClock, p.pullPeers = false, false, nil, nil
	clear(p.aux)
	p.aux = p.aux[:0]
	p.bytes = 0
}

// Add merges one outbound message. coalesced counts deposits absorbed into —
// or pending items displaced from — existing state instead of growing it,
// dropped counts unmergeable messages discarded undelivered at the
// MaxPendingAux cap, and delta is the change in Bytes. Pending takes
// ownership of the message's clock and peer sample.
func (p *Pending[ID]) Add(m Message[ID]) (coalesced, dropped, delta int) {
	before := p.Bytes()
	switch {
	case m.Kind == KindPush:
		coalesced = p.addPush(m.Update, m.T)
	case m.Kind == KindAck:
		if _, ok := p.ackSet[m.UpdateRef]; ok {
			return 1, 0, 0
		}
		if p.ackSet == nil {
			p.ackSet = make(map[store.Ref]struct{})
		}
		p.ackSet[m.UpdateRef] = struct{}{}
		p.acks = append(p.acks, m.UpdateRef)
		p.bytes += pendingRefBytes
	case m.Kind == KindPullReq:
		if p.pullReq {
			return 1, 0, 0
		}
		p.pullReq = true
		p.bytes += pendingFlagBytes
	case m.IsPullIntent():
		coalesced = p.addPullIntent(m.Clock, m.Peers)
	default:
		p.aux = append(p.aux, m)
		p.bytes += auxBytes(m)
		if len(p.aux) > MaxPendingAux {
			p.bytes -= auxBytes(p.aux[0])
			p.aux = p.aux[1:]
			dropped = 1
		}
	}
	return coalesced, dropped, p.Bytes() - before
}

func auxBytes[ID comparable](m Message[ID]) int {
	return pendingAuxBase + len(m.Key) + len(m.Value)
}

func clockEntryBytes(origin string) int { return len(origin) + 8 }

// addPush merges one push. Same ref: the round counter refreshes in place.
// New ref: it is absorbed when a pending version of the key dominates it, and
// otherwise displaces every pending version it dominates.
func (p *Pending[ID]) addPush(u store.Update, t int) (coalesced int) {
	ref := u.Ref()
	if e, ok := p.pushes[ref]; ok {
		e.t = t
		p.pushes[ref] = e
		return 1
	}
	refs := p.byKey[u.Key]
	for _, other := range refs {
		if e, ok := p.pushes[other]; ok && e.u.Version.Dominates(u.Version) {
			return 1
		}
	}
	kept := refs[:0]
	for _, other := range refs {
		e, ok := p.pushes[other]
		if !ok {
			continue // popped since the key's last deposit
		}
		if u.Version.Dominates(e.u.Version) {
			delete(p.pushes, other)
			p.bytes -= e.u.SizeBytes()
			coalesced++
			continue
		}
		kept = append(kept, other)
	}
	if p.pushes == nil {
		p.pushes = make(map[store.Ref]pushEntry)
		p.byKey = make(map[string][]store.Ref)
	}
	p.pushes[ref] = pushEntry{u: u, t: t}
	p.byKey[u.Key] = append(kept, ref)
	p.bytes += u.SizeBytes()
	p.order.push(ref)
	if p.order.len() > 2*len(p.pushes)+pendingOrderSlack {
		// Behind a stalled link a hot key leaves one displaced ref per
		// overwrite; keep the index proportional to the live pushes.
		p.order.filter(func(r store.Ref) bool {
			_, ok := p.pushes[r]
			return ok
		})
	}
	return coalesced
}

// addPullIntent merges one owed pull answer: the pending clock becomes the
// pointwise minimum of itself and the new requester clock, and the newest
// peer sample replaces the older one.
func (p *Pending[ID]) addPullIntent(clock version.Clock, peers []ID) (coalesced int) {
	p.pullPeers = peers
	if !p.pullResp {
		p.pullResp, p.pullClock = true, clock
		p.bytes += pendingFlagBytes
		for origin := range clock {
			p.bytes += clockEntryBytes(origin)
		}
		return 0
	}
	for origin, have := range p.pullClock {
		if nv, ok := clock[origin]; !ok {
			delete(p.pullClock, origin)
			p.bytes -= clockEntryBytes(origin)
		} else if nv < have {
			p.pullClock[origin] = nv
		}
	}
	return 1
}

// Pop removes and returns the next pending message, or reports false when
// nothing is pending. The drain order is fixed: pushes in first-deposit order
// (they carry the new data), then acks, the pull request, the pull answer
// intent, and the unmergeable messages in arrival order. A caller with a
// send budget stops calling when the budget is spent; the rest stays pending
// and keeps merging.
func (p *Pending[ID]) Pop() (Message[ID], bool) {
	for ref, ok := p.order.peek(); ok; ref, ok = p.order.peek() {
		p.order.pop()
		e, ok := p.pushes[ref]
		if !ok {
			continue // displaced while pending
		}
		delete(p.pushes, ref)
		p.bytes -= e.u.SizeBytes()
		return Message[ID]{Kind: KindPush, Update: e.u, T: e.t}, true
	}
	switch {
	case len(p.acks) > 0:
		ref := p.acks[0]
		p.acks = p.acks[1:]
		delete(p.ackSet, ref)
		p.bytes -= pendingRefBytes
		return Message[ID]{Kind: KindAck, UpdateRef: ref}, true
	case p.pullReq:
		p.pullReq = false
		p.bytes -= pendingFlagBytes
		return Message[ID]{Kind: KindPullReq}, true
	case p.pullResp:
		m := Message[ID]{Kind: KindPullResp, Clock: p.pullClock, Peers: p.pullPeers}
		p.bytes -= pendingFlagBytes
		for origin := range p.pullClock {
			p.bytes -= clockEntryBytes(origin)
		}
		p.pullResp, p.pullClock, p.pullPeers = false, nil, nil
		return m, true
	case len(p.aux) > 0:
		m := p.aux[0]
		p.aux = p.aux[1:]
		p.bytes -= auxBytes(m)
		return m, true
	}
	return Message[ID]{}, false
}
