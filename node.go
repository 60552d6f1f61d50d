package pushpull

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/store"
)

// Store-level counter names reported when a Node is opened with WithMetrics;
// unlike the live.* counters these classify apply outcomes regardless of how
// the update arrived.
const (
	// MetricStoreApplied counts updates that changed the store.
	MetricStoreApplied = "store.applied"
	// MetricStoreDuplicate counts updates the store had already seen.
	MetricStoreDuplicate = "store.duplicate"
	// MetricStoreObsolete counts updates dominated by existing revisions.
	MetricStoreObsolete = "store.obsolete"
)

// Node is a lifecycle-managed handle on one live protocol replica: open it
// with Open, mutate and read through the context-aware operations, observe
// applied updates with Watch, and release everything with Close. All methods
// are safe for concurrent use.
type Node struct {
	replica   *live.Replica
	transport live.Transport
	metrics   *Metrics
	watchBuf  int
	walRec    WALRecoveryStats
	hasWAL    bool

	mu       sync.Mutex
	closed   bool
	closing  chan struct{}
	watchers map[int64]*watcher
	nextID   int64
}

// watcher is one Watch subscription: a key-prefix filter and a buffered
// delivery channel.
type watcher struct {
	prefix string
	ch     chan Event
}

// Open assembles, configures, and starts a Node. Exactly one transport
// option (WithTCP, WithHub, WithTransport) is required; every other option
// has a production-ready default (fanout 5, PF(t) = 0.9^t, partial lists,
// eager + periodic pull). Configuration problems are reported as
// ErrInvalidConfig errors.
func Open(opts ...Option) (*Node, error) {
	o := defaultNodeOptions()
	for _, opt := range opts {
		if opt != nil {
			opt(o)
		}
	}
	// Open owns a WithTransport-supplied transport from the first option
	// on, so every failure path must release it — callers can't tell how
	// far Open got.
	fail := func(err error) (*Node, error) {
		if o.given != nil {
			_ = o.given.Close()
		}
		return nil, err
	}
	if o.err != nil {
		return fail(o.err)
	}
	switch {
	case o.transports == 0:
		return nil, ErrNoTransport
	case o.transports > 1:
		return fail(fmt.Errorf("%w: %d transport options given, want exactly one", ErrInvalidConfig, o.transports))
	}

	n := &Node{
		metrics:  o.metrics,
		watchBuf: o.watchBuffer,
		closing:  make(chan struct{}),
		watchers: make(map[int64]*watcher),
	}
	cfg := o.cfg
	cfg.Hooks.OnApply = n.onApply
	if o.metrics != nil {
		cfg.Metrics = o.metrics
	}

	tr, err := o.makeTransport()
	if err != nil {
		return nil, fmt.Errorf("pushpull: open transport: %w", err)
	}
	rep, err := live.NewReplica(cfg, tr)
	if err != nil {
		_ = tr.Close()
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	n.replica = rep
	n.transport = tr

	// Recovery runs before the store apply hook below is registered: replayed
	// records must not tick the store.* counters (the soak's conservation
	// invariant accounts restored updates separately).
	if cfg.WAL != nil {
		rec, err := rep.RecoverWAL()
		if err != nil {
			_ = tr.Close()
			return nil, fmt.Errorf("%w: recover: %v", ErrWAL, err)
		}
		n.walRec = rec
		n.hasWAL = true
	}
	if o.metrics != nil {
		reg := o.metrics
		rep.Store().SetApplyHook(func(_ Update, res store.ApplyResult, _ int) {
			switch res {
			case store.Applied:
				reg.Inc(MetricStoreApplied)
			case store.Duplicate:
				reg.Inc(MetricStoreDuplicate)
			case store.Obsolete:
				reg.Inc(MetricStoreObsolete)
			}
		})
	}
	rep.AddPeers(o.peers...)
	rep.Start()
	return n, nil
}

// Addr returns the address other replicas use to reach this node.
func (n *Node) Addr() string { return n.replica.Addr() }

// Publish creates an update setting key to value, applies it locally, and
// starts pushing it to peers. It fails with ErrClosed after Close and with
// the context's error if ctx is already cancelled.
func (n *Node) Publish(ctx context.Context, key string, value []byte) (Update, error) {
	if err := n.operational(ctx, "publish"); err != nil {
		return Update{}, err
	}
	u, err := n.replica.Publish(key, value)
	if err != nil {
		return u, fmt.Errorf("%w: publish: %v", ErrWAL, err)
	}
	return u, nil
}

// Delete creates a tombstone for key, applies it locally, and starts pushing
// it to peers. It fails with ErrClosed after Close and with the context's
// error if ctx is already cancelled.
func (n *Node) Delete(ctx context.Context, key string) (Update, error) {
	if err := n.operational(ctx, "delete"); err != nil {
		return Update{}, err
	}
	u, err := n.replica.Delete(key)
	if err != nil {
		return u, fmt.Errorf("%w: delete: %v", ErrWAL, err)
	}
	return u, nil
}

// WALRecovery reports what crash recovery restored when the node was opened
// with WithWAL: replayed records (the checkpoint's included), absorbed
// duplicates, and damaged bytes not replayed. ok is false when no WAL is configured.
func (n *Node) WALRecovery() (stats WALRecoveryStats, ok bool) {
	return n.walRec, n.hasWAL
}

// Get reads the winning revision for key from the local store. The boolean
// is false if the key is absent or tombstoned.
func (n *Node) Get(key string) (Revision, bool) { return n.replica.Get(key) }

// Keys returns the sorted keys with at least one live revision.
func (n *Node) Keys() []string { return n.replica.Store().Keys() }

// Clock returns a copy of the node's vector clock over received updates.
func (n *Node) Clock() Clock { return n.replica.Store().Clock() }

// Store returns the node's underlying versioned store, for read-only
// introspection (Versions, MissingFor, UpdateCount, ...).
func (n *Node) Store() Store { return n.replica.Store() }

// Query consults k random known replicas for key (§4.4), blocking until
// their answers arrive or ctx expires, and returns the causally freshest
// revision; the local store participates as one more voice. On a node with
// no known peers it answers from the local store alone and reports ErrNoPeers
// if that also misses.
func (n *Node) Query(ctx context.Context, key string, k int) (QueryOutcome, error) {
	if err := n.operational(ctx, "query"); err != nil {
		return QueryOutcome{}, err
	}
	if n.replica.PeerCount() == 0 {
		out := QueryOutcome{}
		if rev, ok := n.replica.Get(key); ok {
			out.Found = true
			out.Revision = rev
			return out, nil
		}
		return out, fmt.Errorf("query %q: %w", key, ErrNoPeers)
	}
	return n.replica.Query(ctx, key, k)
}

// Pull performs one anti-entropy pull batch immediately, on top of the
// periodic schedule. It fails with ErrNoPeers when the node knows nobody to
// pull from.
func (n *Node) Pull(ctx context.Context) error {
	if err := n.operational(ctx, "pull"); err != nil {
		return err
	}
	if n.replica.PeerCount() == 0 {
		return fmt.Errorf("pull: %w", ErrNoPeers)
	}
	n.replica.PullNow()
	return nil
}

// AddPeers teaches the node about other replica addresses.
func (n *Node) AddPeers(addrs ...string) { n.replica.AddPeers(addrs...) }

// Peers returns a copy of the known replica addresses, sorted. (The engine
// keeps its membership view in sampling order, which is not meaningful to
// callers.)
func (n *Node) Peers() []string {
	peers := n.replica.Peers()
	sort.Strings(peers)
	return peers
}

// Watch subscribes to the node's apply stream: every update offered to the
// local store — created locally, received by push, or reconciled by pull —
// whose key starts with keyPrefix is delivered as an Event (the empty prefix
// matches everything). The channel is closed when ctx is cancelled or the
// node closes. A subscriber that falls more than the watch buffer behind
// (WithWatchBuffer, default 256) loses events, counted under
// MetricWatchDropped.
func (n *Node) Watch(ctx context.Context, keyPrefix string) (<-chan Event, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("watch: %w", ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("pushpull: watch: %w", err)
	}
	id := n.nextID
	n.nextID++
	w := &watcher{prefix: keyPrefix, ch: make(chan Event, n.watchBuf)}
	n.watchers[id] = w
	closing := n.closing
	n.mu.Unlock()

	go func() {
		select {
		case <-ctx.Done():
		case <-closing:
		}
		n.mu.Lock()
		if _, ok := n.watchers[id]; ok {
			delete(n.watchers, id)
			close(w.ch)
		}
		n.mu.Unlock()
	}()
	return w.ch, nil
}

// onApply is the live-runtime hook fanning protocol applies out to Watch
// subscribers. Sends never block: subscribers with full buffers lose the
// event instead of stalling the protocol. It runs under the replica's engine
// lock, so n.mu is never held while calling the replica (Close releases it
// before Stop).
func (n *Node) onApply(u store.Update, res store.ApplyResult, src Source, branches int) {
	ev := Event{Kind: eventKind(res), Update: u, Source: src, Branches: branches}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for _, w := range n.watchers {
		if !strings.HasPrefix(u.Key, w.prefix) {
			continue
		}
		if len(w.ch) == cap(w.ch) {
			if n.metrics != nil {
				n.metrics.Inc(MetricWatchDropped)
			}
			continue
		}
		// Count first, so a subscriber that has the event sees it counted.
		// The send cannot block: only onApply sends, always under n.mu.
		if n.metrics != nil {
			n.metrics.Inc(MetricWatchEvents)
		}
		w.ch <- ev
	}
}

// Close shuts the node down gracefully: new operations start failing with
// ErrClosed, the background puller drains, the transport closes, and every
// Watch channel is closed. Close is idempotent; if ctx expires first it
// returns the context's error while the shutdown completes in the
// background.
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.closing) // watcher goroutines take it from here
	n.mu.Unlock()

	done := make(chan struct{})
	go func() {
		n.replica.Stop()
		_ = n.transport.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("pushpull: close: %w", ctx.Err())
	}
}

// operational gates an operation on the node being open and the context
// still live. Package sentinels already carry the "pushpull:" prefix, so
// only foreign errors (the context's) get one added.
func (n *Node) operational(ctx context.Context, op string) error {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return fmt.Errorf("%s: %w", op, ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pushpull: %s: %w", op, err)
	}
	return nil
}
