package live

import (
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/wire"
)

// This file implements the coalescing per-peer delta senders (the weave
// GossipSender shape): one goroutine and one engine.Pending per destination.
// Engine sends are deposited into the destination's pending delta and the
// sender goroutine drains it through the transport. While a link is busy —
// the transport write is synchronous, so a slow peer parks exactly its own
// sender — new deposits MERGE into the pending delta instead of queueing
// (the rules are engine.Pending's, shared with the simulator), so pending
// state stays O(live state) per destination, not O(traffic). Nothing is
// rendered at deposit time: the partial-flooding list, the pull-request
// clock and the pull answer (delta or snapshot stream) are all produced at
// transmission time (engine.RenderPush, store.Clock, engine.AnswerPull), so
// a slow consumer receives the newest superset rather than a replay of stale
// frames.

// senderIdleTimeout is how long a peer sender with nothing pending lingers
// before retiring its goroutine. Senders are recreated transparently on the
// next deposit; the timeout only bounds idle-goroutine count at the churn
// rate, not correctness.
const senderIdleTimeout = time.Minute

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

	// bufs double-buffers the pending delta: deposits merge into bufs[cur]
	// while the run loop flushes the other one, which it Resets for reuse, so
	// neither regrows its maps per batch. cur and bufs[cur] are guarded by
	// the replica's mu; the other buffer belongs to the run loop.
	bufs [2]engine.Pending[string]
	cur  int

	envs   []wire.Envelope // the run loop's render scratch, cleared per batch
	frames []*wire.Frame
}

// maxSenderScratch caps the batch size whose scratch a sender keeps.
const maxSenderScratch = 1024

func newPeerSender(r *Replica, to string) *peerSender {
	return &peerSender{r: r, to: to, wake: make(chan struct{}, 1)}
}

// deposit merges one engine message into the pending delta, fires the
// coalescing/drop counters (a dropped message was never sent: send.failed),
// moves the pending-bytes gauge and nudges the run loop. The caller holds
// the replica's mu.
func (s *peerSender) deposit(m engine.Message[string]) {
	r := s.r
	coalesced, dropped, delta := s.bufs[s.cur].Add(m)
	if coalesced > 0 {
		r.add(MetricSendCoalesced, coalesced)
	}
	if dropped > 0 {
		r.add(MetricSendFailed, dropped)
	}
	r.pendingBytes += int64(delta)
	r.pendingPeak = max(r.pendingPeak, r.pendingBytes)
	select {
	case s.wake <- struct{}{}:
	default:
	}
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

// deliver renders and transmits pending deltas until none remain. Each batch
// holds the replica lock once: to swap buffers — deposits made while the
// batch is on the wire merge into the other one — to take its bytes off the
// gauge, and to render its pushes' flooding lists.
func (s *peerSender) deliver() {
	r := s.r
	for {
		r.mu.Lock()
		p := &s.bufs[s.cur]
		if p.Len() == 0 {
			r.mu.Unlock()
			return
		}
		s.cur ^= 1
		r.pendingBytes -= int64(p.Bytes())
		pushes := 0
		m, ok := p.Pop()
		for ; ok && m.Kind == engine.KindPush; m, ok = p.Pop() {
			// Late-bound flooding list: the engine's current carried list for
			// the update, not the one at deposit. Updates the engine no longer
			// tracks still ship, with no list.
			m.RF, _ = r.eng.RenderPush(m.Update.Ref())
			s.envs = append(s.envs, envelopeFromEngine(r.addr, m))
			pushes++
		}
		r.mu.Unlock()
		if pushes > 0 {
			r.add(MetricPushSent, pushes)
		}
		s.flush(p, m, ok)
		p.Reset()
	}
}

// flush transmits one taken batch — its pushes already rendered into s.envs,
// m the first message after them — late-binding everything else that depends
// on current state: the pull-request clock from the store, and the pull
// answer from the coalesced minimum requester clock. The answer goes last:
// its first chunk, of a delta or of a snapshot stream, closes the batch; the
// remaining chunks follow one per transport write — the receiver applies
// chunk k while chunk k+1 is encoded here, and neither side holds more than a
// chunk of encoding — stopping at the first write that fails, so a frontier
// never follows a hole the sender knows of. Protocol counters fire here — at
// actual transmission — not at deposit.
func (s *peerSender) flush(p *engine.Pending[string], m engine.Message[string], ok bool) {
	r := s.r
	envs := s.envs
	used := 0 // envs' high-water mark: the answer below restarts it per chunk
	var intent engine.Message[string]
	acks := 0
	for ; ok; m, ok = p.Pop() {
		switch {
		case m.Kind == engine.KindAck:
			acks++
		case m.Kind == engine.KindPullReq:
			m.Clock = r.st.Clock()
			r.inc(MetricPullRequests)
		case m.IsPullIntent():
			intent = m
			continue
		case m.Kind == engine.KindQuery:
			r.inc(MetricQuerySent)
		}
		envs = append(envs, envelopeFromEngine(r.addr, m))
	}
	if acks > 0 {
		r.add(MetricAckSent, acks)
	}
	if !intent.IsPullIntent() {
		s.send(envs)
	} else {
		// AnswerPull reads only the store and immutable config, so it runs
		// without the replica lock — cutting the live state for a far-behind
		// peer never stalls the protocol.
		delta := false
		r.eng.AnswerPull(intent.Clock, intent.Peers, func(m engine.Message[string]) bool {
			envs = append(envs, envelopeFromEngine(r.addr, m))
			sent := s.send(envs)
			used, envs = max(used, len(envs)), envs[:0]
			delta = m.Kind == engine.KindPullResp
			if m.Last && sent {
				// A catch-up counts as served once its last chunk went out.
				r.inc(MetricSnapshotServed)
			}
			return sent
		})
		if delta {
			// One answer, however many chunks carried it.
			r.inc(MetricPullServed)
		}
	}
	s.envs = recycle(envs, max(used, len(envs)))
}

// recycle clears the first used entries of a scratch slice — all a batch
// wrote — for reuse, or drops an outsized one.
func recycle[T any](s []T, used int) []T {
	if cap(s) > maxSenderScratch {
		return nil
	}
	clear(s[:used])
	return s[:0]
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
		frames := s.frames[:0]
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
		s.frames = recycle(frames, len(frames))
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

// tryRetire ends an idle sender: under the replica lock, if nothing is
// pending it deregisters, so the next deposit for the destination spawns a
// fresh sender — pending state is never stranded.
func (s *peerSender) tryRetire() bool {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.bufs[s.cur].Len() > 0 {
		return false
	}
	if r.senders[s.to] == s {
		delete(r.senders, s.to)
	}
	return true
}

// discard drops pending state on replica stop, keeping the gauge honest.
func (s *peerSender) discard() {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pendingBytes -= int64(s.bufs[s.cur].Bytes())
	s.bufs[s.cur].Reset()
}
