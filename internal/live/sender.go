package live

import (
	"sync"
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
	// neither regrows its maps per batch. cur and bufs[cur] are guarded by mu;
	// the other buffer belongs to the run loop.
	mu      sync.Mutex
	bufs    [2]engine.Pending[string]
	cur     int
	closing bool

	envs   []wire.Envelope // the run loop's render scratch, cleared per batch
	frames []*wire.Frame
}

// maxSenderScratch caps the batch size whose scratch a sender keeps.
const maxSenderScratch = 1024

func newPeerSender(r *Replica, to string) *peerSender {
	return &peerSender{r: r, to: to, wake: make(chan struct{}, 1)}
}

// deposit merges one engine message into the pending delta. It reports false
// when the sender is retiring — the caller must fetch a fresh sender and
// retry — and otherwise fires the coalescing/drop counters (a dropped
// message was never sent: send.failed) and the pending-bytes gauge outside
// the sender lock and nudges the run loop.
func (s *peerSender) deposit(m engine.Message[string]) bool {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return false
	}
	coalesced, dropped, delta := s.bufs[s.cur].Add(m)
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

// take hands the pending delta to the run loop under the lock, leaving the
// other, empty buffer for concurrent deposits.
func (s *peerSender) take() *engine.Pending[string] {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &s.bufs[s.cur]
	if p.Len() == 0 {
		return nil
	}
	s.cur ^= 1
	return p
}

// deliver renders and transmits pending deltas until none remain. Deposits
// made while a batch is on the wire merge into the next one.
func (s *peerSender) deliver() {
	for p := s.take(); p != nil; p = s.take() {
		s.r.notePendingBytes(int64(-p.Bytes()))
		s.flush(p)
		p.Reset()
	}
}

// flush drains one taken pending delta into wire envelopes and transmits them
// as one batch, late-binding everything that depends on current state:
// flooding lists from the engine, the pull-request clock from the store, and
// the pull answer from the coalesced minimum requester clock. The answer
// goes last: a delta, or the first chunk of a snapshot stream, closes the
// batch; a stream's remaining chunks follow one per transport write — the
// receiver applies chunk k while chunk k+1 is encoded here, and neither side
// holds more than a chunk of encoding — stopping at the first write that
// fails, so a frontier never follows a hole the sender knows of. Protocol
// counters fire here — at actual transmission — not at deposit.
func (s *peerSender) flush(p *engine.Pending[string]) {
	r := s.r
	envs := s.envs[:0]
	var intent engine.Message[string]
	m, ok := p.Pop()
	if ok && m.Kind == engine.KindPush {
		pushes := 0
		r.mu.Lock()
		for ; ok && m.Kind == engine.KindPush; m, ok = p.Pop() {
			// Late-bound flooding list: the engine's current carried list for
			// the update, not the one frozen at deposit. Updates the engine
			// no longer tracks still ship, with no list.
			m.RF, _ = r.eng.RenderPush(m.Update.Ref())
			envs = append(envs, envelopeFromEngine(r.addr, m))
			pushes++
		}
		r.mu.Unlock()
		r.add(MetricPushSent, pushes)
	}
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
		r.eng.AnswerPull(intent.Clock, intent.Peers, func(m engine.Message[string]) bool {
			envs = append(envs, envelopeFromEngine(r.addr, m))
			sent := s.send(envs)
			envs = envs[:0]
			switch {
			case m.Kind == engine.KindPullResp:
				r.inc(MetricPullServed)
			case m.Last && sent:
				// A catch-up counts as served once its last chunk went out.
				r.inc(MetricSnapshotServed)
			}
			return sent
		})
	}
	s.envs = recycle(envs)
}

// recycle clears a scratch slice for reuse, or drops an outsized one.
func recycle[T any](s []T) []T {
	if cap(s) > maxSenderScratch {
		return nil
	}
	clear(s[:cap(s)])
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
		s.frames = recycle(frames)
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
	if s.bufs[s.cur].Len() > 0 {
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
	n := s.bufs[s.cur].Bytes()
	s.bufs[s.cur].Reset()
	s.mu.Unlock()
	if n != 0 {
		s.r.notePendingBytes(int64(-n))
	}
}
