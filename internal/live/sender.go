package live

import (
	"sync"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// This file implements the coalescing per-peer delta senders (the weave
// GossipSender shape): one goroutine and one pending delta per destination.
// Engine sends are deposited into the destination's pending delta and the
// sender goroutine drains it through the transport. While a link is busy —
// the transport write is synchronous, so a slow peer parks exactly its own
// sender — new deposits MERGE into the pending delta instead of queueing:
//
//   - pushes dedup by store.Ref and newer versions of a key supersede
//     pending dominated ones (the receiver's clock gap, if any, is repaired
//     by ordinary pull anti-entropy);
//   - pull responses collapse to the pointwise-minimum requester clock, so
//     one rendered response covers every outstanding request;
//   - pull requests and acks are idempotent flags/sets.
//
// Pending state therefore stays O(live state) per destination, not
// O(traffic), and nothing is rendered at deposit time: the partial-flooding
// list, the pull-response delta (or snapshot stream), and the pull-request
// clock are all produced at transmission time (engine.RenderPush /
// engine.RenderPullResp, store.Clock), so a slow consumer receives the
// newest superset rather than a replay of stale frames.

// senderIdleTimeout is how long a peer sender with nothing pending lingers
// before retiring its goroutine. Senders are recreated transparently on the
// next deposit; the timeout only bounds idle-goroutine count at the churn
// rate, not correctness.
const senderIdleTimeout = time.Minute

// maxPendingAux caps the non-mergeable envelope classes (queries, query
// responses) a pending delta will hold for a stalled destination. These
// carry request/response semantics and cannot coalesce; beyond the cap the
// oldest are dropped (counted as MetricSendFailed) — queries time out and
// retry at the protocol layer, so dropping is safe and keeps even the aux
// portion of pending state bounded.
const maxPendingAux = 1024

// pendingPush is one coalesced outbound push: the update plus the round
// counter it would have carried. The flooding list is deliberately absent —
// it is re-rendered from live engine state at send time.
type pendingPush struct {
	u store.Update
	t int
}

// pendingDelta is everything owed to one destination, in mergeable form.
// All methods require external synchronisation (peerSender.mu) and return
// the change in the estimated byte footprint plus how many deposits merged
// into existing state instead of growing it.
type pendingDelta struct {
	// entries holds the coalesced pushes keyed by update identity; order
	// preserves first-deposit order for rendering (stale refs — superseded
	// entries — are skipped at render). byKey indexes entries by key so a
	// newer version can displace dominated pending ones in O(branches).
	entries map[store.Ref]pendingPush
	order   []store.Ref
	byKey   map[string][]store.Ref

	// acks is the deduplicated set of update refs to acknowledge.
	acks   []store.Ref
	ackSet map[store.Ref]struct{}

	// pullReq records that at least one anti-entropy request is owed; the
	// clock is rendered from the store at send time, so later is only ever
	// better.
	pullReq bool

	// pullResp records an owed pull response as the pointwise-minimum of
	// every outstanding requester clock (an origin absent from either clock
	// counts as zero and drops out); rendering DeltaFor(min) at send time
	// yields a superset of every coalesced request's gap. pullRespPeers is
	// the latest membership sample to piggyback.
	pullResp      bool
	pullRespClock version.Clock
	pullRespPeers []string

	// aux holds rendered envelopes that cannot merge (query traffic),
	// bounded by maxPendingAux.
	aux []wire.Envelope

	// bytes is the estimated footprint of everything above, maintained
	// incrementally so the replica can expose a cheap pending-memory gauge.
	bytes int
}

func newPendingDelta() pendingDelta {
	return pendingDelta{
		entries: make(map[store.Ref]pendingPush),
		byKey:   make(map[string][]store.Ref),
		ackSet:  make(map[store.Ref]struct{}),
	}
}

func (p *pendingDelta) empty() bool {
	return len(p.entries) == 0 && len(p.acks) == 0 && !p.pullReq &&
		!p.pullResp && len(p.aux) == 0
}

// Fixed-size estimates for the non-payload pending classes.
const (
	pendingAckBytes  = 24
	pendingFlagBytes = 16
	pendingAuxBase   = 64
)

func pendingClockBytes(c version.Clock) int {
	n := pendingFlagBytes
	for origin := range c {
		n += len(origin) + 8
	}
	return n
}

// addPush merges one outbound push. Same ref: the round counter refreshes
// in place. New ref: any pending entry for the same key whose version is
// dominated by the newcomer is displaced, and the newcomer itself is
// dropped when a pending entry already dominates it — newest version wins
// in both directions. Concurrent branches coexist.
func (p *pendingDelta) addPush(u store.Update, t int) (coalesced, delta int) {
	ref := u.Ref()
	if e, ok := p.entries[ref]; ok {
		e.t = t
		p.entries[ref] = e
		return 1, 0
	}
	refs := p.byKey[u.Key]
	for _, other := range refs {
		if e, ok := p.entries[other]; ok && e.u.Version.Dominates(u.Version) {
			// A pending entry already carries this key at or past the
			// deposited version; the deposit is fully absorbed.
			return 1, 0
		}
	}
	kept := refs[:0]
	for _, other := range refs {
		e, ok := p.entries[other]
		if !ok {
			continue // stale index entry
		}
		if u.Version.Dominates(e.u.Version) {
			delete(p.entries, other)
			coalesced++
			delta -= e.u.SizeBytes()
			continue
		}
		kept = append(kept, other)
	}
	p.entries[ref] = pendingPush{u: u, t: t}
	p.order = append(p.order, ref)
	p.byKey[u.Key] = append(kept, ref)
	delta += u.SizeBytes()
	p.bytes += delta
	return coalesced, delta
}

// addAck records one acknowledgement, deduplicated by ref.
func (p *pendingDelta) addAck(ref store.Ref) (coalesced, delta int) {
	if _, ok := p.ackSet[ref]; ok {
		return 1, 0
	}
	p.ackSet[ref] = struct{}{}
	p.acks = append(p.acks, ref)
	p.bytes += pendingAckBytes
	return 0, pendingAckBytes
}

// addPullReq records that an anti-entropy request is owed.
func (p *pendingDelta) addPullReq() (coalesced, delta int) {
	if p.pullReq {
		return 1, 0
	}
	p.pullReq = true
	p.bytes += pendingFlagBytes
	return 0, pendingFlagBytes
}

// addPullResp merges an owed pull response: the pending clock becomes the
// pointwise minimum of itself and the new requester clock (missing origins
// count as zero and drop out), and the piggybacked peer sample is replaced
// by the newest one. The pending delta takes ownership of both arguments.
func (p *pendingDelta) addPullResp(clock version.Clock, peers []string) (coalesced, delta int) {
	if !p.pullResp {
		p.pullResp = true
		p.pullRespClock = clock
		p.pullRespPeers = peers
		delta = pendingClockBytes(clock)
		p.bytes += delta
		return 0, delta
	}
	old := p.bytes
	for origin, have := range p.pullRespClock {
		if nv, ok := clock[origin]; !ok {
			delete(p.pullRespClock, origin)
			p.bytes -= len(origin) + 8
		} else if nv < have {
			p.pullRespClock[origin] = nv
		}
	}
	p.pullRespPeers = peers
	return 1, p.bytes - old
}

// addAux appends a non-mergeable envelope, dropping the oldest beyond
// maxPendingAux. dropped counts envelopes discarded undelivered.
func (p *pendingDelta) addAux(env wire.Envelope) (dropped, delta int) {
	p.aux = append(p.aux, env)
	delta = pendingAuxBase + len(env.Key) + len(env.Value)
	if len(p.aux) > maxPendingAux {
		victim := p.aux[0]
		delta -= pendingAuxBase + len(victim.Key) + len(victim.Value)
		copy(p.aux, p.aux[1:])
		p.aux = p.aux[:len(p.aux)-1]
		dropped = 1
	}
	p.bytes += delta
	return dropped, delta
}

// peerSender owns all outbound traffic to one destination: a pending delta
// deposits merge into, and a goroutine (run) that drains it through the
// transport. The transport write is synchronous, so a slow destination
// blocks only its own sender while the pending delta coalesces behind it.
type peerSender struct {
	r  *Replica
	to string

	// wake nudges the run loop after a deposit; 1-buffered so deposits
	// never block and redundant nudges collapse.
	wake chan struct{}

	mu      sync.Mutex
	p       pendingDelta
	closing bool
}

func newPeerSender(r *Replica, to string) *peerSender {
	return &peerSender{r: r, to: to, wake: make(chan struct{}, 1), p: newPendingDelta()}
}

// deposit applies one merge to the pending delta. It reports false when the
// sender is retiring — the caller must fetch a fresh sender and retry — and
// otherwise fires the coalescing/drop counters and the pending-bytes gauge
// outside the sender lock and nudges the run loop.
func (s *peerSender) deposit(f func(p *pendingDelta) (coalesced, dropped, delta int)) bool {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return false
	}
	coalesced, dropped, delta := f(&s.p)
	s.mu.Unlock()
	if coalesced > 0 {
		s.r.add(MetricSendCoalesced, coalesced)
	}
	if dropped > 0 {
		s.r.add(MetricSendFailed, dropped)
	}
	if delta != 0 {
		s.r.notePendingBytes(int64(delta))
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return true
}

// run is the sender goroutine: drain on every nudge, retire after an idle
// minute, discard pending state when the replica stops.
func (s *peerSender) run() {
	defer s.r.bg.Done()
	idle := time.NewTimer(senderIdleTimeout)
	defer idle.Stop()
	for {
		select {
		case <-s.wake:
			s.deliver()
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(senderIdleTimeout)
		case <-idle.C:
			if s.tryRetire() {
				return
			}
			idle.Reset(senderIdleTimeout)
		case <-s.r.stop:
			s.discard()
			return
		}
	}
}

// take swaps the pending delta out under the lock, leaving a fresh one for
// concurrent deposits.
func (s *peerSender) take() (pendingDelta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p.empty() {
		return pendingDelta{}, false
	}
	p := s.p
	s.p = newPendingDelta()
	return p, true
}

// deliver renders and transmits pending deltas until none remain. Deposits
// made while a batch is on the wire merge into the next one.
func (s *peerSender) deliver() {
	for {
		p, ok := s.take()
		if !ok {
			return
		}
		s.r.notePendingBytes(int64(-p.bytes))
		envs, cut, frontier := s.render(&p)
		s.send(envs)
		if frontier != nil {
			s.sendSnapshot(cut, frontier, p.pullRespPeers)
		}
	}
}

// sendSnapshot streams a live cut to the destination one chunk per
// transport write — the receiver applies chunk k while chunk k+1 is encoded
// here, and neither side holds more than a chunk of encoding — and stops at
// the first chunk that fails, so a frontier never follows a hole the sender
// knows of. A catch-up counts as served once its last chunk went out.
func (s *peerSender) sendSnapshot(cut []store.Update, frontier version.Clock, peers []string) {
	r := s.r
	if r.eng.StreamSnapshot(cut, frontier, peers, func(chunk engine.Message[string]) bool {
		return s.send([]wire.Envelope{envelopeFromEngine(r.addr, chunk)})
	}) {
		r.inc(MetricSnapshotServed)
	}
}

// render converts one taken pending delta into wire envelopes, late-binding
// everything that depends on current state: flooding lists from the engine,
// the pull-request clock from the store, and the pull response from the
// coalesced minimum requester clock. A pull response that came out as a live
// cut is returned beside the batch (frontier non-nil) for sendSnapshot to
// stream after it. Protocol counters fire here — at actual transmission —
// not at deposit.
func (s *peerSender) render(p *pendingDelta) (envs []wire.Envelope, cut []store.Update, frontier version.Clock) {
	r := s.r
	envs = make([]wire.Envelope, 0, len(p.order)+len(p.acks)+len(p.aux)+2)
	// Acks first: they are cheap and unblock the peer's §6 retransmit state.
	for _, ref := range p.acks {
		envs = append(envs, wire.Envelope{From: r.addr, Kind: wire.KindAck, UpdateRef: ref})
	}
	if n := len(p.acks); n > 0 {
		r.add(MetricAckSent, n)
	}
	if len(p.order) > 0 {
		pushes := 0
		r.mu.Lock()
		for _, ref := range p.order {
			e, ok := p.entries[ref]
			if !ok {
				continue // superseded while pending
			}
			delete(p.entries, ref)
			// Late-bound flooding list: the engine's current carried list
			// for the update, not the one frozen at deposit. Updates the
			// engine no longer tracks still ship, with no list.
			rf, _ := r.eng.RenderPush(ref)
			envs = append(envs, wire.Envelope{
				From: r.addr, Kind: wire.KindPush,
				Update: wire.FromStore(e.u), RF: rf, T: e.t,
			})
			pushes++
		}
		r.mu.Unlock()
		if pushes > 0 {
			r.add(MetricPushSent, pushes)
		}
	}
	if p.pullReq {
		envs = append(envs, wire.Envelope{
			From: r.addr, Kind: wire.KindPullReq, Clock: r.st.Clock(),
		})
		r.inc(MetricPullRequests)
	}
	if p.pullResp {
		// RenderPullResp reads only the store and immutable config, so it
		// runs without the replica lock — cutting the live state for a
		// far-behind peer never stalls the protocol.
		var updates []store.Update
		if updates, frontier = r.eng.RenderPullResp(p.pullRespClock); frontier != nil {
			cut = updates
		} else {
			envs = append(envs, envelopeFromEngine(r.addr, engine.Message[string]{
				Kind: engine.KindPullResp, Updates: updates, Peers: p.pullRespPeers,
			}))
			r.inc(MetricPullServed)
		}
	}
	for _, env := range p.aux {
		switch env.Kind {
		case wire.KindQuery:
			r.inc(MetricQuerySent)
		case wire.KindPullResp:
			r.inc(MetricPullServed)
		}
		envs = append(envs, env)
	}
	return envs, cut, frontier
}

// send transmits one rendered batch: encoded once into frames and flushed
// through a single FrameBatchSender write when the transport offers it.
// Errors drop the batch — counted, never retried here; the protocol's own
// pull anti-entropy re-derives anything that mattered. It reports whether
// every envelope was handed to the transport without error.
func (s *peerSender) send(envs []wire.Envelope) bool {
	r := s.r
	failed := 0
	if fbs, ok := r.transport.(FrameBatchSender); ok {
		frames := make([]*wire.Frame, 0, len(envs))
		for i := range envs {
			f, err := wire.NewFrame(&envs[i])
			if err != nil {
				failed++
				continue
			}
			frames = append(frames, f)
		}
		if len(frames) > 0 {
			if err := fbs.SendFrames(s.to, frames); err != nil {
				failed += len(frames)
			}
			for _, f := range frames {
				f.Release()
			}
		}
	} else {
		for i := range envs {
			if err := r.transport.Send(s.to, envs[i]); err != nil {
				failed++
			}
		}
	}
	if failed > 0 {
		r.add(MetricSendFailed, failed)
	}
	return failed == 0
}

// tryRetire ends an idle sender: under the registry lock, if nothing is
// pending the sender marks itself closing and deregisters, so a concurrent
// deposit observes either the registration gone or the closing flag and
// recreates a sender — pending state is never stranded.
func (s *peerSender) tryRetire() bool {
	r := s.r
	r.sendMu.Lock()
	s.mu.Lock()
	if !s.p.empty() {
		s.mu.Unlock()
		r.sendMu.Unlock()
		return false
	}
	s.closing = true
	if r.senders[s.to] == s {
		delete(r.senders, s.to)
	}
	s.mu.Unlock()
	r.sendMu.Unlock()
	return true
}

// discard drops pending state on replica stop, keeping the gauge honest.
func (s *peerSender) discard() {
	s.mu.Lock()
	s.closing = true
	n := s.p.bytes
	s.p = pendingDelta{}
	s.mu.Unlock()
	if n != 0 {
		s.r.notePendingBytes(int64(-n))
	}
}
