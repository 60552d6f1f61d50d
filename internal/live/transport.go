// Package live runs the hybrid push/pull protocol in real time: replicas
// are goroutine-driven, messages travel over a pluggable Transport, and the
// pull phase is scheduled by wall-clock timers instead of simulation rounds.
//
// Two transports ship with the package: an in-memory hub for tests and
// examples, and a TCP transport (length-prefixed binary framing, see
// internal/wire) for actual deployments — the paper's position that the
// physical layer is orthogonal (§1) made concrete. A replica reaches either
// the same way, through its per-peer coalescing senders (sender.go): the
// transport decides only how a rendered batch crosses the link.
package live

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/p2pgossip/update/internal/wire"
)

// Handler consumes inbound envelopes. Implementations must be safe for
// concurrent calls. The envelope's container fields (RF, Updates,
// KnownPeers, Clock) may be backed by per-connection storage the transport
// reuses for the next message: a handler must finish with them before
// returning. Strings, update values, and version histories are fresh per
// message and may be retained.
type Handler func(wire.Envelope)

// Transport moves envelopes between replica addresses.
type Transport interface {
	// Addr returns the local address other replicas use to reach this one.
	Addr() string
	// Send delivers an envelope to the given address, best effort: sends to
	// unknown or offline addresses report an error. It is called from the
	// destination's sender goroutine, so a Send that blocks on a slow peer
	// delays only that peer's traffic. The envelope's values alias the
	// sender's store and are read-only: a transport that hands the envelope
	// to a Handler without encoding it copies them first, as the Hub does.
	Send(to string, env wire.Envelope) error
	// SetHandler registers the inbound callback; must be called before the
	// first Send to this transport.
	SetHandler(h Handler)
	// Close releases resources and stops inbound delivery.
	Close() error
}

// FrameSender is implemented by transports that accept one pre-encoded
// binary frame (wire.NewFrame). The replica does not select on it: it sends
// through FrameBatchSender where offered and Send otherwise.
type FrameSender interface {
	SendFrame(to string, f *wire.Frame) error
}

// FrameBatchSender is implemented by transports that can deliver several
// pre-encoded frames to one destination as a single write+flush. The
// coalescing per-peer senders use it so that an entire merged delta — pushes,
// a pull response, acks — costs one syscall on the wire; on a transport
// without it the batch goes out as one Send per envelope. The frames are only
// borrowed for the duration of the call.
type FrameBatchSender interface {
	SendFrames(to string, fs []*wire.Frame) error
}

// BatchReceiver is implemented by transports that can hand over inbound
// pushes a run at a time: pushes one connection delivered back to back, in
// order. Pushes only — any other kind ends a run and reaches the Handler
// after it — and a run never waits for more input. As with Handler, the
// slice and each RF are reused for the next run; strings, values and
// histories may be retained. Without a batch handler, pushes go to Handler.
type BatchReceiver interface {
	SetBatchHandler(h func([]wire.Envelope))
}

// Hub is an in-memory message fabric connecting MemTransports. It supports
// taking endpoints "offline" — sends to them fail, mirroring the paper's
// unreliable peers — and is safe for concurrent use.
type Hub struct {
	mu      sync.RWMutex
	members map[string]*MemTransport
	offline map[string]bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{
		members: make(map[string]*MemTransport),
		offline: make(map[string]bool),
	}
}

// Attach creates a transport bound to addr on this hub.
func (h *Hub) Attach(addr string) (*MemTransport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.members[addr]; exists {
		return nil, fmt.Errorf("live: address %q already attached", addr)
	}
	tr := &MemTransport{hub: h, addr: addr}
	h.members[addr] = tr
	return tr, nil
}

// SetOnline toggles an endpoint's availability.
func (h *Hub) SetOnline(addr string, online bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.offline[addr] = !online
}

// Online reports whether an endpoint is attached and not marked offline.
func (h *Hub) Online(addr string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, attached := h.members[addr]
	return attached && !h.offline[addr]
}

func (h *Hub) deliver(to string, env wire.Envelope) error {
	h.mu.RLock()
	tr, ok := h.members[to]
	down := h.offline[to]
	h.mu.RUnlock()
	if !ok {
		return fmt.Errorf("live: unknown address %q", to)
	}
	if down {
		return fmt.Errorf("live: address %q offline", to)
	}
	tr.mu.RLock()
	handler := tr.handler
	closed := tr.closed
	tr.mu.RUnlock()
	if closed || handler == nil {
		return fmt.Errorf("live: address %q not receiving", to)
	}
	handler(ownValues(env))
	return nil
}

// ownValues gives env fresh copies of the values it carries, which alias the
// sender's store (wire.FromStore): other transports copy them by decoding, so
// the Handler contract holds on every transport.
func ownValues(env wire.Envelope) wire.Envelope {
	env.Update.Value, env.Value = bytes.Clone(env.Update.Value), bytes.Clone(env.Value)
	if ups := env.Updates; len(ups) > 0 {
		env.Updates = make([]wire.Update, len(ups))
		for i, u := range ups {
			u.Value = bytes.Clone(u.Value)
			env.Updates[i] = u
		}
	}
	return env
}

func (h *Hub) detach(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.members, addr)
	delete(h.offline, addr)
}

// MemTransport is one endpoint on a Hub.
type MemTransport struct {
	hub  *Hub
	addr string

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

var _ Transport = (*MemTransport)(nil)

// Addr implements Transport.
func (t *MemTransport) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *MemTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Send implements Transport. Delivery is a synchronous call into the
// receiver's handler on the caller's goroutine — for a replica, the sender
// goroutine of that one destination.
func (t *MemTransport) Send(to string, env wire.Envelope) error {
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return fmt.Errorf("live: transport %q closed", t.addr)
	}
	if !t.hub.Online(t.addr) {
		return fmt.Errorf("live: sender %q offline", t.addr)
	}
	return t.hub.deliver(to, env)
}

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.hub.detach(t.addr)
	return nil
}
