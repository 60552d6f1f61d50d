package main

import (
	"context"
	"sync/atomic"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// pubWindow bounds how many of one publisher's updates may be published but not
// yet applied on every receiving node — the closed loop of saturate_publish
// and of rejoin's bursts. Without it an unthrottled publisher outruns its
// per-peer senders, which then (correctly) coalesce superseded pushes away
// and leave the gaps to the pull timer: the run would measure the timer.
//
// Progress is read from the receivers' vector clocks, once a millisecond: a
// node's clock entry for an origin is the highest sequence number below which
// it holds everything. Watch events would do for counting too, but under
// saturation a pull is now and then answered with a snapshot frame, whose
// apply offers every resident entry to the Watch stream again in one burst —
// more than any reasonable buffer holds — and a window fed by a lossy stream
// stalls.
type pubWindow struct {
	origin    string
	base      uint64 // the origin's sequence number before the window's first update
	receivers []*pushpull.Node
	released  atomic.Int64 // updates applied on every receiver
	tokens    chan struct{}
	stop      chan struct{}
	done      chan struct{}
}

// newPubWindow starts a window for updates that origin publishes from now on.
// Call close when the publisher is done with it.
func newPubWindow(origin *pushpull.Node, receivers []*pushpull.Node, size int) *pubWindow {
	w := &pubWindow{
		origin:    origin.Addr(),
		base:      origin.Clock()[origin.Addr()],
		receivers: receivers,
		tokens:    make(chan struct{}, size),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		w.tokens <- struct{}{}
	}
	go w.poll()
	return w
}

// poll frees a slot for every update that has reached all receivers.
func (w *pubWindow) poll() {
	defer close(w.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		min := w.receivers[0].Clock()[w.origin]
		for _, r := range w.receivers[1:] {
			if seq := r.Clock()[w.origin]; seq < min {
				min = seq
			}
		}
		if min < w.base {
			continue // a receiver that has not even caught up with the past
		}
		now := int64(min - w.base)
		for old := w.released.Load(); old < now; old++ {
			w.tokens <- struct{}{}
		}
		w.released.Store(now)
	}
}

func (w *pubWindow) close() {
	close(w.stop)
	<-w.done
}

// publisher writes one origin's updates through Node.Publish under a window.
type publisher struct {
	idx   int // publisher index, the client part of its op IDs
	node  *pushpull.Node
	win   *pubWindow
	pad   []byte
	count int64 // updates published
	errs  int
}

// publish writes key once; it blocks while the window is full.
func (p *publisher) publish(ctx context.Context, key string) {
	<-p.win.tokens
	if _, err := p.node.Publish(ctx, key, makeValue(opID(p.idx, int(p.count)), p.pad)); err != nil {
		p.errs++
	}
	p.count++
}

// drain waits until every published update reached all receivers, then ends
// the window.
func (p *publisher) drain(timeout time.Duration) bool {
	defer p.win.close()
	deadline := time.Now().Add(timeout)
	for p.win.released.Load() < p.count {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
