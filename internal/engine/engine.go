// Package engine implements the paper's hybrid push/pull protocol state
// machine (§4.1–4.4, §6) exactly once, independent of transport and clock.
//
// The engine is generic over the peer identity type and talks to its host
// through the small Endpoint interface (identity, message delivery, time,
// randomness). Two adapters run the same state machine:
//
//   - internal/gossip drives it from the round-based simulator: int peer
//     indices, simnet delivery, one round = one tick;
//   - internal/live drives it in real time: string addresses, wire.Envelope
//     delivery over a Transport, UnixNano ticks.
//
// Because both layers share this code, every behavioural fix — and every
// §6 self-tuning signal, such as the flooding-list-fraction feedback into
// the adaptive PF schedule — lands on the simulated and the live path at
// once. Both adapters enter the same way: they write the store themselves
// (a local write through the shared store.Writer, an inbound update through
// store.Backend.ApplyObserved) and hand the engine the outcome through
// PublishApplied, HandlePushApplied and HandlePullRespApplied; messages
// without updates go through Handle. The engine never applies an update, so
// simulator scenarios exercise exactly the entry points that ship.
//
// The engine is deliberately single-threaded: it never locks, never spawns
// goroutines, and calls Endpoint.Send and hook callbacks synchronously.
// Concurrency is the adapter's concern (the simulator is synchronous by
// construction; the live runtime serialises calls behind a mutex, and each
// send merges into the destination's Pending under it).
package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// Endpoint is everything the engine needs from its host environment.
type Endpoint[ID comparable] interface {
	// Self returns the local peer's identity.
	Self() ID
	// Send delivers a protocol message to the given peer, best effort:
	// sends to offline peers are expected to vanish.
	Send(to ID, msg Message[ID])
	// Now returns the current time in ticks. The unit is the adapter's
	// choice (simulation rounds, nanoseconds); the Config timeouts use the
	// same unit.
	Now() int64
	// Rand returns the deterministic random source for protocol choices.
	Rand() *rand.Rand
}

// Hooks observes protocol-level events. All callbacks are optional and run
// synchronously inside engine calls, under whatever serialisation the adapter
// holds around the engine, so they must be fast and must not call back into
// the engine.
type Hooks[ID comparable] struct {
	// OnApply fires after an update is offered to the local store — created
	// locally, received by push, or reconciled by pull. branches is the
	// number of coexisting revisions of the key, counted atomically with
	// the apply.
	OnApply func(u store.Update, res store.ApplyResult, src Source, branches int)
	// OnDuplicate fires when a push arrives for an update already seen
	// (the §6 local tuning signal). branches is the key's current revision
	// count.
	OnDuplicate func(u store.Update, branches int)
	// OnLearned fires when a flooding list or membership sample taught the
	// engine count previously unknown replicas (the name-dropper effect).
	OnLearned func(count int)
	// OnAck fires when a peer acknowledges an update we pushed (§6).
	OnAck func(peer ID)
	// OnSuspect fires when a peer is suspected offline because its ack
	// never arrived (§6).
	OnSuspect func(peer ID)
}

// Config parameterises an engine. Timeouts are in Endpoint.Now ticks.
type Config[ID comparable] struct {
	// Fanout is the expected number of peers each push targets (the
	// paper's R·f_r). Fractional values are honoured by probabilistic
	// rounding.
	Fanout float64
	// NewPF builds the forwarding-probability schedule for one update. A
	// factory (rather than a shared instance) lets adaptive schedules keep
	// per-update state: every first receipt and publish calls it, unless it
	// returns one of the pf package's stateless schedules (Constant, Linear,
	// Geometric, AffineGeometric, TTL, Haas), which is then called once and
	// shared by every update. Nil means PF(t) = 1.
	NewPF func() pf.Func
	// PartialList enables carrying the flooding list R_f on push messages.
	PartialList bool
	// ListMax caps the number of entries carried per push (the paper's
	// L_thr·R); 0 means unlimited. Truncation drops random entries.
	ListMax int
	// Population is the total replica count R used to normalise the
	// flooding-list length for the §6 adaptive-PF feedback. 0 means
	// dynamic: the membership view size plus one (the live runtime, where
	// R is not known a priori).
	Population int
	// PullAttempts is the number of peers contacted per pull batch. Zero
	// disables the pull phase entirely.
	PullAttempts int
	// LazyPull makes a waking peer wait for gossip instead of pulling
	// eagerly (§6); it then syncs when a pull request or query reveals it
	// may be stale.
	LazyPull bool
	// PullTimeout is the number of ticks without any received update after
	// which Tick triggers a pull ("no_updates_since(t)"). Zero disables
	// timeout-driven pulls.
	PullTimeout int64
	// SnapshotCatchUp is the delta-size threshold of the snapshot catch-up
	// path: a pull request missing more than this many updates is answered
	// with the responder's live cut instead of the entry-by-entry delta —
	// when the cut is the smaller of the two. 0 disables the size trigger; a
	// gap below the compaction frontier is always answered with the cut,
	// since the delta no longer exists.
	SnapshotCatchUp int
	// FrontierTTL is how many ticks a peer's pull clock stays in the stable-
	// frontier bookkeeping. Expiring stale clocks lets the frontier advance
	// past long-gone peers — they are caught up by snapshot on return, which
	// is exactly what makes compacting their history safe. 0 keeps recorded
	// clocks forever.
	FrontierTTL int64
	// Acks enables the §6 acknowledgement optimisation: receivers ack the
	// first copy of each update; senders prefer acking peers and skip
	// suspected-offline ones.
	Acks bool
	// AckTimeout is how many ticks to wait for an ack before suspecting a
	// peer offline. Required (> 0) when Acks is set.
	AckTimeout int64
	// SuspectTTL is how many ticks suspected peers are skipped before
	// being re-admitted. Required (> 0) when Acks is set.
	SuspectTTL int64
	// LazySweep makes ack-deadline and suspect-expiry sweeps run during
	// peer sampling (the live runtime, which has no Tick). When false the
	// sweeps run only in Tick (the simulator's per-round model).
	LazySweep bool
	// QueryTimeout is the number of ticks after which an unanswered query
	// is finished with the responses at hand; 0 disables timeout expiry
	// (the live runtime bounds queries with contexts instead).
	QueryTimeout int64
	// QueryLocalVoice makes the local store participate in every query as
	// one more voice, so a fresh replica never answers worse than Get.
	QueryLocalVoice bool
	// DeferPullRender makes pull requests answered with an *unrendered*
	// intent: a KindPullResp message carrying only the requester's clock
	// (cloned into Message.Clock) and the gossiped peer sample, with no
	// updates. The adapter renders the actual delta — or snapshot stream —
	// at transmission time via AnswerPull. This is the late-binding contract
	// of a coalescing sender: responses that wait behind a busy link are
	// merged by clock (Pending) and rendered when the link frees, so the
	// requester receives the newest superset instead of a stale backlog.
	// Off (the default), handlePullReq answers in place.
	DeferPullRender bool
	// ValidID reports whether a peer identity learned from the wire is
	// usable as a protocol target. Nil accepts every non-self identity;
	// the live adapter rejects empty addresses, which a zero-valued gob
	// envelope would otherwise plant in the membership view and re-gossip
	// cluster-wide.
	ValidID func(ID) bool
	// Hooks observes protocol events.
	Hooks Hooks[ID]
}

// Validate reports whether the configuration is usable.
func (c Config[ID]) Validate() error {
	switch {
	case c.Fanout < 0:
		return fmt.Errorf("engine: fanout %g negative", c.Fanout)
	case c.ListMax < 0:
		return fmt.Errorf("engine: list max %d negative", c.ListMax)
	case c.Population < 0:
		return fmt.Errorf("engine: population %d negative", c.Population)
	case c.PullAttempts < 0:
		return fmt.Errorf("engine: pull attempts %d negative", c.PullAttempts)
	case c.PullTimeout < 0:
		return fmt.Errorf("engine: pull timeout %d negative", c.PullTimeout)
	case c.QueryTimeout < 0:
		return fmt.Errorf("engine: query timeout %d negative", c.QueryTimeout)
	case c.SnapshotCatchUp < 0:
		return fmt.Errorf("engine: snapshot catch-up threshold %d negative", c.SnapshotCatchUp)
	case c.FrontierTTL < 0:
		return fmt.Errorf("engine: frontier ttl %d negative", c.FrontierTTL)
	case c.Acks && c.AckTimeout <= 0:
		return fmt.Errorf("engine: acks enabled with ack timeout %d", c.AckTimeout)
	case c.Acks && c.SuspectTTL <= 0:
		return fmt.Errorf("engine: acks enabled with suspect ttl %d", c.SuspectTTL)
	default:
		return nil
	}
}

// updateState is the flooding state of an update published here or pushed
// on from here: the accumulated flooding list, the duplicate count (the §6
// local tuning metric), and the PF instance that decided forwarding. The
// list starts on the inline array.
type updateState[ID comparable] struct {
	rf     orderedSet[ID]
	inline [8]ID
	dupes  int
	pfn    pf.Func
}

// snapshotStream is the receive position in one peer's snapshot stream: the
// stream's identifier and the index of the next chunk expected.
type snapshotStream struct {
	id   uint64
	next int
}

// pullClock is one entry of the stable-frontier bookkeeping: a peer's last
// pull-request clock and the tick it was recorded.
type pullClock struct {
	clock version.Clock
	at    int64
}

// deadline is one entry of a deadline queue: a peer and the tick the entry
// was created. Both the ack-await and the suspect bookkeeping push entries
// with monotone ticks, so each queue is processed strictly front to back: a
// sweep costs O(expired entries), in insertion order, not O(map size).
type deadline[ID comparable] struct {
	peer ID
	at   int64
}

// queue is a FIFO with amortised O(1) pop that keeps its backing array
// across drains, so a queue refilled at a steady rate stops allocating.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) push(v T) { q.items = append(q.items, v) }

// len returns the number of entries not yet popped.
func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) peek() (T, bool) {
	if q.head >= len(q.items) {
		var zero T
		return zero, false
	}
	return q.items[q.head], true
}

// filter drops the entries keep rejects, preserving the order of the rest.
func (q *queue[T]) filter(keep func(T) bool) {
	kept := q.items[:0]
	for _, v := range q.items[q.head:] {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	q.items, q.head = kept, 0
}

func (q *queue[T]) reset() { q.items, q.head = q.items[:0], 0 }

func (q *queue[T]) pop() {
	q.head++
	if q.head == len(q.items) {
		q.reset() // fully drained: recycle the backing array
		return
	}
	// Reclaim the consumed prefix once it dominates the backing array, so a
	// queue that is never fully drained (a busy pusher always has a pending
	// ack deadline) still stays proportional to its live entries. The copy
	// is amortised O(1) per pop.
	if q.head >= 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// Engine is one replica's instance of the protocol state machine. It is not
// safe for concurrent use; adapters serialise access.
type Engine[ID comparable] struct {
	cfg  Config[ID]
	ep   Endpoint[ID]
	self ID
	st   store.Backend
	w    *store.Writer

	view *peerView[ID] // known replicas, never containing self
	// cur and old are the two generations of flooding state (see track).
	cur, old map[store.Ref]*updateState[ID]
	// first is the flooding list of the first receipt being decided; it is
	// copied into flooding state only if the receipt pushes on.
	first orderedSet[ID]
	// sharedPF is NewPF's schedule once it proved stateless (see newPF).
	sharedPF pf.Func

	// scratch is the reusable peer-sampling buffer; sample takes it and
	// releaseScratch returns it, so the steady path allocates nothing.
	scratch []ID

	// lastReceived is the tick at which the engine last received any update
	// content (push or pull response), driving "no_updates_since(t)".
	lastReceived int64
	// pullClocks is the stable-frontier bookkeeping: the latest vector clock
	// each peer presented in a pull request, with the tick it arrived. Their
	// pointwise minimum is the compaction frontier — everything at or below
	// it is history every recently-heard peer already holds.
	pullClocks map[ID]pullClock
	// notConfident is set while a lazily-pulling peer has not yet synced
	// after coming online.
	notConfident bool
	// streams tracks, per sending peer, the snapshot stream being received;
	// a frontier is adopted only at the end of an unbroken one.
	streams map[ID]snapshotStream
	// streamSeq numbers the snapshot streams this engine sends. It starts
	// at the construction tick so a restarted process does not reuse the
	// identifiers of streams its previous life left torn, and is atomic
	// because StreamSnapshot, like RenderPullResp, runs outside the adapter's
	// engine serialisation.
	streamSeq atomic.Uint64

	// §6 ack optimisation state (only used when cfg.Acks). The maps are the
	// source of truth; the queues order the timeout sweeps and the acked
	// insertion list gives Acked a stable order.
	ackedBy     map[ID]int64        // peer → tick of their last ack to us
	ackedOrder  []ID                // peers in first-ack order
	suspects    map[ID]int64        // peer → tick we began suspecting them
	suspectQ    queue[deadline[ID]] // suspicion entries in creation order
	awaitingAck map[ID]int64        // peer → tick we first pushed to them unacked
	ackWaitQ    queue[deadline[ID]] // await entries in creation order

	// §4.4 query state.
	queries      map[int64]*queryState
	queryCounter int64
}

// New constructs an engine over the given endpoint, store, and writer. The
// adapter owns store and writer construction because identity, clocks, and
// seeding are adapter concerns.
func New[ID comparable](cfg Config[ID], ep Endpoint[ID], st store.Backend, w *store.Writer) (*Engine[ID], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ep == nil {
		return nil, fmt.Errorf("engine: nil endpoint")
	}
	if st == nil || w == nil {
		return nil, fmt.Errorf("engine: nil store or writer")
	}
	e := &Engine[ID]{
		cfg:         cfg,
		ep:          ep,
		self:        ep.Self(),
		st:          st,
		w:           w,
		view:        new(peerView[ID]),
		cur:         make(map[store.Ref]*updateState[ID]),
		old:         make(map[store.Ref]*updateState[ID]),
		pullClocks:  make(map[ID]pullClock),
		streams:     make(map[ID]snapshotStream),
		scratch:     make([]ID, 0, 16),
		ackedBy:     make(map[ID]int64),
		suspects:    make(map[ID]int64),
		awaitingAck: make(map[ID]int64),
		queries:     make(map[int64]*queryState),
	}
	e.streamSeq.Store(uint64(ep.Now()))
	return e, nil
}

// defaultPullGossipSample is the number of peer ids piggybacked on pull
// responses.
const defaultPullGossipSample = 16

// Store returns the engine's replica store.
func (e *Engine[ID]) Store() store.Backend { return e.st }

// Self returns the local peer identity.
func (e *Engine[ID]) Self() ID { return e.self }

// Restart resets the engine to what a freshly exec'd process attached to the
// same (restored) store would hold: membership view, per-update flooding
// lists and PF state, ack/suspect bookkeeping, and pending queries are all
// wiped; the store and writer — the durable state — are kept, and the
// bootstrap peers are re-learned (the seed list a restarting replica reads
// from its config). Re-pushed copies of stored updates are duplicates because
// the store has seen them (HandlePushApplied), not because the engine
// remembers them.
//
// Adapters restore the store from its snapshot *before* calling Restart, and
// resync their writer afterwards.
func (e *Engine[ID]) Restart(bootstrap []ID) {
	clear(e.cur)
	clear(e.old)
	e.ackedBy = make(map[ID]int64)
	e.ackedOrder = nil
	e.suspects = make(map[ID]int64)
	e.suspectQ = queue[deadline[ID]]{}
	e.awaitingAck = make(map[ID]int64)
	e.ackWaitQ = queue[deadline[ID]]{}
	e.queries = make(map[int64]*queryState)
	e.pullClocks = make(map[ID]pullClock)
	e.streams = make(map[ID]snapshotStream)
	e.notConfident = false
	e.lastReceived = e.ep.Now()
	e.Bootstrap(bootstrap)
}

// --- Membership -------------------------------------------------------

// Learn adds id to the membership view (ignoring the peer itself and
// identities rejected by Config.ValidID) and reports whether it was new.
func (e *Engine[ID]) Learn(id ID) bool {
	if id == e.self || !e.validID(id) {
		return false
	}
	if !e.view.Add(id) {
		return false
	}
	if e.cfg.Acks {
		// Place the newcomer in the segment its ack history demands: a peer
		// can ack (or be suspected) before the membership view learns it.
		if _, suspected := e.suspects[id]; suspected {
			e.view.suspend(id)
		} else if _, acked := e.ackedBy[id]; acked {
			e.view.promote(id)
		}
	}
	return true
}

// Bootstrap replaces the membership view with ids, leaving it as Learn
// would on an empty view, one id at a time, but with one allocation and no
// index until the first lookup. Self and ids rejected by Config.ValidID are
// skipped; ids must otherwise be distinct, and a repeat panics when the
// index is built. Every peer lands in the available segment, so the engine
// must hold no ack history: call it on a new engine, as Restart does after
// wiping that history.
func (e *Engine[ID]) Bootstrap(ids []ID) {
	order := make([]ID, 0, len(ids))
	for _, id := range ids {
		if id != e.self && e.validID(id) {
			order = append(order, id)
		}
	}
	e.view.seed(order)
}

// validID applies the configured identity filter.
func (e *Engine[ID]) validID(id ID) bool {
	return e.cfg.ValidID == nil || e.cfg.ValidID(id)
}

// learnAll adds every id, firing the OnLearned hook with the number newly
// learned — the name-dropper effect materialising.
func (e *Engine[ID]) learnAll(ids []ID) {
	n := 0
	for _, id := range ids {
		if e.Learn(id) {
			n++
		}
	}
	if n > 0 && e.cfg.Hooks.OnLearned != nil {
		e.cfg.Hooks.OnLearned(n)
	}
}

// Knows reports whether id is in the membership view.
func (e *Engine[ID]) Knows(id ID) bool { return e.view.Contains(id) }

// KnownPeers returns a copy of the membership view. The order is
// unspecified: the view is kept partitioned for O(k) sampling, not sorted.
func (e *Engine[ID]) KnownPeers() []ID { return e.view.Slice() }

// KnownCount returns the number of known replicas.
func (e *Engine[ID]) KnownCount() int { return e.view.Len() }

// --- Update bookkeeping ----------------------------------------------

// stateWindow is the number of updates one generation of flooding state
// holds. R_f and the duplicate count matter only while this node still
// pushes an update (§4.2, §6) — forwarding is decided once, at first
// receipt — and "have I seen it" is the store's answer, so the engine keeps
// state only for updates published here or pushed on from here.
const stateWindow = 4096

// Duplicates returns the duplicate-push count observed for an update while
// its flooding state is in the window; 0 once it has left, and for updates
// never tracked (received by push but not pushed on, learned by pull or
// snapshot, or stored before a restart).
func (e *Engine[ID]) Duplicates(updateID string) int {
	ref, err := store.ParseRef(updateID)
	if s, ok := e.state(ref); ok && err == nil {
		return s.dupes
	}
	return 0
}

// FloodingList returns the accumulated flooding list for an update, in
// insertion order, or nil once its flooding state has left the window (and
// for updates never tracked, as for Duplicates).
func (e *Engine[ID]) FloodingList(updateID string) []ID {
	ref, err := store.ParseRef(updateID)
	if s, ok := e.state(ref); ok && err == nil {
		return s.rf.Slice()
	}
	return nil
}

// NotConfident reports whether the engine is waiting to be synchronised
// after a lazy wake-up (§6).
func (e *Engine[ID]) NotConfident() bool { return e.notConfident }

// state returns the flooding state of ref, if it is still in the window.
func (e *Engine[ID]) state(ref store.Ref) (*updateState[ID], bool) {
	if s, ok := e.cur[ref]; ok {
		return s, true
	}
	s, ok := e.old[ref]
	return s, ok
}

// track starts the flooding state of an update published here or pushed on
// from here, decided by pfn. A full current generation swaps with the older
// one, emptied first (buckets kept), so at most 2·stateWindow entries are
// resident; counting updates, not time, keeps the simulator deterministic.
func (e *Engine[ID]) track(ref store.Ref, pfn pf.Func) *updateState[ID] {
	if len(e.cur) >= stateWindow {
		clear(e.old)
		e.cur, e.old = e.old, e.cur
	}
	s := &updateState[ID]{pfn: pfn}
	s.rf.order = s.inline[:0]
	e.cur[ref] = s
	return s
}

// newPF returns the schedule for one update. A schedule of one of the pf
// package's stateless types answers the same for every update, so the first
// one NewPF returns is kept and shared; any other gets a fresh instance.
func (e *Engine[ID]) newPF() pf.Func {
	if e.sharedPF != nil {
		return e.sharedPF
	}
	if e.cfg.NewPF == nil {
		return pf.Always()
	}
	f := e.cfg.NewPF()
	switch f.(type) {
	case pf.Constant, pf.Linear, pf.Geometric, pf.AffineGeometric, pf.TTL, pf.Haas:
		e.sharedPF = f
	}
	return f
}

// --- Lifecycle callbacks ---------------------------------------------

// CameOnline is the pull-phase trigger: an eagerly-pulling peer contacts
// PullAttempts replicas at once; a lazy one (§6) waits for gossip and marks
// itself not confident.
func (e *Engine[ID]) CameOnline() {
	if e.cfg.PullAttempts <= 0 {
		return
	}
	if e.cfg.LazyPull {
		e.notConfident = true
		return
	}
	e.sendPull()
}

// Tick runs the periodic sweeps: suspect expiry, ack-deadline detection,
// query expiry, and the "no_updates_since(t)" timeout pull. The simulator
// calls it once per round; the live runtime does not call it yet and relies
// on LazySweep, contexts and a wall-clock pull ticker instead (ROADMAP C(2)).
func (e *Engine[ID]) Tick() {
	now := e.ep.Now()
	e.expireSuspects(now)
	e.detectMissingAcks(now)
	e.expireQueries(now)
	if e.cfg.PullTimeout > 0 && e.cfg.PullAttempts > 0 &&
		now-e.lastReceived > e.cfg.PullTimeout {
		e.sendPull()
		e.lastReceived = now // rate-limit timeout pulls
	}
}

// Handle dispatches one inbound protocol message that carries no update: a
// pull request, an ack, a query or a query response. Pushes and pull answers
// enter through HandlePushApplied and HandlePullRespApplied, after the
// adapter applied their updates — the engine never applies an update itself.
func (e *Engine[ID]) Handle(from ID, m Message[ID]) {
	switch m.Kind {
	case KindPullReq:
		e.handlePullReq(from, m)
	case KindAck:
		e.handleAck(from)
	case KindQuery:
		e.handleQuery(from, m)
	case KindQueryResp:
		e.handleQueryResp(m)
	}
}

// --- Push phase (§4.1–4.2) -------------------------------------------

// PublishApplied initiates the push phase (the paper's round 0) for an update
// the adapter created through the engine's shared Writer, which applied it to
// the store. branches is the revision count from that apply. Adapters run the
// writer outside their engine serialisation (the Writer serialises itself,
// and the sharded store stripes the apply) and enter the engine only for the
// protocol bookkeeping.
func (e *Engine[ID]) PublishApplied(u store.Update, branches int) {
	e.fireApply(u, store.Applied, SourceLocal, branches)
	state := e.track(u.Ref(), e.newPF())
	e.lastReceived = e.ep.Now()

	targets := e.sample(e.fanout())
	state.rf.AddAll(targets)
	state.rf.Add(e.self)
	e.sendPushes(u, targets, state, 0)
	e.releaseScratch(targets)
}

// Applied carries the outcome of a store apply the adapter performed before
// entering the engine — the one ingest contract: the adapter offers each
// inbound update to the store (the live runtime on its connection readers,
// concurrently, against the lock-striped store; the simulator in place), then
// enters the engine's small critical section with only the result.
type Applied struct {
	// Res classifies the store outcome.
	Res store.ApplyResult
	// Branches is the key's revision count, counted atomically with the
	// apply.
	Branches int
}

// HandlePushApplied ingests a KindPush message whose update the adapter
// already offered to the store, with outcome pre. The engine performs only
// protocol bookkeeping: membership, duplicate tuning, ack, and the forwarding
// decision.
//
// The store decides what is new. A push whose flooding state is in the window
// is a duplicate whatever pre says (its first copy entered already), and so
// is one the engine does not track whose pre.Res is store.Duplicate: an
// update not pushed on from here, evicted from the window, learned by pull or
// snapshot, stored before a restart, or a racing twin entering ahead of the
// copy that applied it. An adapter may therefore skip the store for an update
// it has Seen and pass Applied{Res: store.Duplicate}.
func (e *Engine[ID]) HandlePushApplied(from ID, m Message[ID], pre Applied) {
	// Name-dropper: every push teaches us replicas we did not know.
	e.learnAll(m.RF)
	e.Learn(from)

	ref := m.Update.Ref()
	state, tracked := e.state(ref)
	if tracked {
		// Duplicate: feed the local tuning metrics (§6) and merge the
		// incoming list — "it can use the list of 'updated replicas' in
		// each of those messages" (§4.2).
		state.dupes++
		state.rf.AddAll(m.RF)
		if ad, ok := state.pfn.(*pf.Adaptive); ok {
			ad.ObserveDuplicate()
			ad.ObserveListFraction(e.listFraction(state.rf.Len()))
		}
	}
	if tracked || pre.Res == store.Duplicate {
		if e.cfg.Hooks.OnDuplicate != nil {
			e.cfg.Hooks.OnDuplicate(m.Update, e.st.BranchCount(m.Update.Key))
		}
		return
	}

	// First receipt: process the update.
	e.lastReceived = e.ep.Now()
	e.notConfident = false
	if e.cfg.Acks && e.validID(from) {
		e.ep.Send(from, Message[ID]{Kind: KindAck, UpdateRef: ref})
	}

	// R_f and the decision are built in the engine's scratch list; flooding
	// state is filed only if the update is pushed on from here.
	rf := &e.first
	rf.reset()
	rf.AddAll(m.RF)
	rf.Add(e.self)
	pfn := e.newPF()
	if ad, ok := pfn.(*pf.Adaptive); ok {
		// §6 speculation: the flooding list on the incoming push estimates
		// how far the update has already been sent, and unlike duplicate
		// counts it is available before the forwarding decision below.
		ad.ObserveListFraction(e.listFraction(rf.Len()))
	}
	e.fireApply(m.Update, pre.Res, SourcePush, pre.Branches)

	// Forward with probability PF(t+1). Per the paper, R_p is a *uniform*
	// random subset of known replicas; the message goes to R_p \ R_f only,
	// which is where the partial list saves messages (the (1−f_r)^t factor
	// of the analysis), and the new list is R_f ∪ R_p.
	t := m.T + 1
	if e.ep.Rand().Float64() >= pfn.P(t) {
		return
	}
	rp := e.sample(e.fanout())
	// Merge R_p into R_f and keep R_p \ R_f(old) in one pass: Add reports
	// exactly "was not in R_f", and a sample has no repeats, so the kept
	// prefix is the old filter-then-union without a second buffer.
	targets := rp[:0]
	for _, candidate := range rp {
		if rf.Add(candidate) {
			targets = append(targets, candidate)
		}
	}
	if len(targets) > 0 {
		state = e.track(ref, pfn)
		rf.moveTo(&state.rf)
		e.sendPushes(m.Update, targets, state, t)
	}
	e.releaseScratch(rp)
}

func (e *Engine[ID]) sendPushes(u store.Update, targets []ID, state *updateState[ID], t int) {
	if len(targets) == 0 {
		return
	}
	// Render the carried list once per push batch; every target gets the
	// same copy.
	carried := e.Carried(state.rf.View())
	now := e.ep.Now()
	for _, target := range targets {
		if e.cfg.Acks {
			if _, pending := e.awaitingAck[target]; !pending {
				e.awaitingAck[target] = now
				e.ackWaitQ.push(deadline[ID]{peer: target, at: now})
			}
		}
		e.ep.Send(target, Message[ID]{Kind: KindPush, Update: u, RF: carried, T: t})
	}
}

// Carried renders an accumulated flooding list (free of duplicates) for the
// wire, applying the ListMax truncation (§4.2) by dropping random entries.
// The local list is never truncated — only the transmitted copy. When no
// truncation applies the list itself is returned: an orderedSet's View only
// ever grows behind an aliased prefix, so sharing it stays valid.
func (e *Engine[ID]) Carried(list []ID) []ID {
	if !e.cfg.PartialList {
		return nil
	}
	if e.cfg.ListMax > 0 && len(list) > e.cfg.ListMax {
		return randomSubset(list, e.cfg.ListMax, e.ep.Rand())
	}
	return list
}

// listFraction estimates the fraction of the replica population an update
// has already been sent to, from its flooding-list length n — the paper's
// normalised list length L(t), the feed-forward signal of the §6 adaptive
// PF. With a configured Population it is len/R (the simulator's model);
// otherwise the known population stands in for R (the live runtime).
func (e *Engine[ID]) listFraction(n int) float64 {
	population := e.cfg.Population
	if population <= 0 {
		population = e.view.Len() + 1
	}
	return float64(n) / float64(population)
}

// fanout draws the per-push target count: Fanout with probabilistic rounding
// so that fractional expected fanouts are honoured. Integer fanouts draw no
// randomness, keeping adapter streams aligned.
func (e *Engine[ID]) fanout() int {
	exact := e.cfg.Fanout
	k := int(exact)
	if frac := exact - float64(k); frac > 0 && e.ep.Rand().Float64() < frac {
		k++
	}
	return k
}

// fireApply reports one apply outcome to the OnApply hook.
func (e *Engine[ID]) fireApply(u store.Update, res store.ApplyResult, src Source, branches int) {
	if e.cfg.Hooks.OnApply != nil {
		e.cfg.Hooks.OnApply(u, res, src, branches)
	}
}

// --- Pull phase (§4.3) -----------------------------------------------

// PullNow sends one pull batch immediately: PullAttempts random known
// replicas receive our vector clock. "it is preferable to contact multiple
// peers and choose the most up to date peer(s) among them" (§3) — with
// clock-based diffs, applying all responses is equivalent to choosing the
// freshest.
func (e *Engine[ID]) PullNow() { e.sendPull() }

func (e *Engine[ID]) sendPull() {
	targets := e.sample(e.cfg.PullAttempts)
	if len(targets) == 0 {
		e.releaseScratch(targets)
		return
	}
	clock := e.st.Clock()
	for _, target := range targets {
		e.ep.Send(target, Message[ID]{Kind: KindPullReq, Clock: clock})
	}
	e.releaseScratch(targets)
}

func (e *Engine[ID]) handlePullReq(from ID, m Message[ID]) {
	e.Learn(from)
	e.recordPullClock(from, m.Clock)
	sample := e.sampleExcluding(defaultPullGossipSample, from)
	// The sample aliases the engine's scratch buffer; the message escapes to
	// the adapter, so it gets its own copy.
	var peers []ID
	if len(sample) > 0 {
		peers = append([]ID(nil), sample...)
	}
	e.releaseScratch(sample)

	if e.cfg.DeferPullRender {
		// Late-binding: ship only the intent (requester clock + peer
		// gossip); the adapter calls AnswerPull when the message actually
		// leaves, so a response that waited behind a slow link serves the
		// newest state, not the state at enqueue time. The clock is cloned
		// because inbound messages may alias decoder scratch.
		e.ep.Send(from, Message[ID]{Kind: KindPullResp, Clock: m.Clock.Clone(), Peers: peers})
	} else {
		e.AnswerPull(m.Clock, peers, func(answer Message[ID]) bool {
			e.ep.Send(from, answer)
			return true
		})
	}

	// "receives a pull request, but is not sure to have the latest update"
	// (§3): a stale or lazily-woken peer answers and synchronises itself.
	now := e.ep.Now()
	stale := e.cfg.PullTimeout > 0 && now-e.lastReceived > e.cfg.PullTimeout
	if (e.notConfident || stale) && e.cfg.PullAttempts > 0 {
		e.sendPull()
		e.lastReceived = now
	}
}

// RenderPullResp renders the reply to a pull request that presented the
// given clock, at whatever moment the adapter transmits it. It is the
// snapshot-vs-delta decision of the pull phase. A nil frontier means updates
// is the exact missing run (possibly empty), ordered by origin and sequence,
// and goes out as KindPullResp chunks (AnswerPull). A non-nil frontier means
// updates is the store's live cut and goes out as a KindSnapshot stream
// (StreamSnapshot) that ends with the frontier: the only answer left when
// compaction has dropped part of the gap, and the cheaper one when the gap
// exceeds SnapshotCatchUp and the live state is smaller than it. A complete
// delta is never replaced by a larger cut — a requester merely a burst
// behind a busy responder is not sent the whole store.
//
// It reads only the store and immutable configuration, so a live adapter may
// call it without holding its engine lock.
func (e *Engine[ID]) RenderPullResp(clock version.Clock) (updates []store.Update, frontier version.Clock) {
	var cut []store.Update
	if e.cfg.SnapshotCatchUp > 0 {
		// A complete delta holds every sequence between the requester's clock
		// and ours, so that gap bounds it from below: a gap above both the
		// threshold and the cut decides for the cut without materialising a
		// delta only to discard it.
		gap := 0
		for origin, have := range e.st.Clock() {
			if c := clock.Get(origin); have > c {
				gap += int(have - c)
			}
		}
		if gap > e.cfg.SnapshotCatchUp {
			if cut, frontier = e.st.LiveCut(); len(cut) < gap {
				return cut, frontier
			}
		}
	}
	missing, complete := e.st.DeltaFor(clock)
	if complete && (e.cfg.SnapshotCatchUp == 0 || len(missing) <= e.cfg.SnapshotCatchUp) {
		return missing, nil
	}
	if frontier == nil {
		cut, frontier = e.st.LiveCut()
	}
	if complete && len(cut) >= len(missing) {
		return missing, nil
	}
	return cut, frontier
}

// AnswerPull renders the answer to a pull request that presented clock and
// hands it to send one message at a time: the exact missing run as
// consecutive KindPullResp chunks, or — when RenderPullResp returns a live
// cut — the KindSnapshot chunks of one StreamSnapshot. Either way a chunk
// holds at most SnapshotChunkBytes of records, so the adapter encodes chunk
// k+1 while the requester applies chunk k and no delta outgrows a frame. A
// delta chunk applies on its own: a prefix of a run ordered by origin and
// sequence leaves every origin's clock contiguous. peers rides on the last
// message; an empty delta is one empty response. Every pull answer leaves
// through here: handlePullReq calls it in place, and with
// Config.DeferPullRender the adapter calls it for the intent
// (Message.IsPullIntent) at the moment of transmission. It stops at the
// first message send reports undelivered. Like RenderPullResp it needs no
// engine serialisation.
func (e *Engine[ID]) AnswerPull(clock version.Clock, peers []ID, send func(Message[ID]) bool) {
	updates, frontier := e.RenderPullResp(clock)
	if frontier != nil {
		e.StreamSnapshot(updates, frontier, peers, send)
		return
	}
	for {
		n := chunkLen(updates)
		m := Message[ID]{Kind: KindPullResp, Updates: updates[:n]}
		updates = updates[n:]
		last := len(updates) == 0
		if last {
			m.Peers = peers
		}
		if !send(m) || last {
			return
		}
	}
}

// SnapshotChunkBytes bounds the update records of one pull-answer chunk —
// a delta's or a snapshot stream's — by store.Update.SizeBytes. It keeps a
// chunk's frame within the transport's pooled buffer size, so a catch-up of
// any length encodes and decodes in recycled memory, and far below
// wire.MaxFrameBytes. A single update larger than the bound travels in a
// chunk of its own.
const SnapshotChunkBytes = 48 << 10

// chunkLen returns how many leading updates of run make one chunk: as many
// as fit in SnapshotChunkBytes, and at least one when run is not empty.
func chunkLen(run []store.Update) int {
	n, size := 0, 0
	for n < len(run) && (n == 0 || size+run[n].SizeBytes() <= SnapshotChunkBytes) {
		size += run[n].SizeBytes()
		n++
	}
	return n
}

// StreamSnapshot sends a live cut (RenderPullResp with a non-nil frontier)
// as one snapshot stream: KindSnapshot chunks of at most SnapshotChunkBytes
// handed to send one at a time — so the adapter encodes chunk k+1 while the
// receiver applies chunk k and neither side ever holds the cut's encoding —
// the last carrying the frontier and the peer sample. An empty cut is one
// Last chunk. It stops at the first chunk send reports undelivered and
// returns whether the whole stream went out: the receiver adopts a frontier
// only after chunks 0..Last of one stream, in order, so a torn stream costs
// a repeated pull and never a wrongly advanced clock. Like RenderPullResp it
// is safe without the adapter's engine serialisation.
func (e *Engine[ID]) StreamSnapshot(cut []store.Update, frontier version.Clock, peers []ID, send func(Message[ID]) bool) bool {
	stream := e.streamSeq.Add(1)
	for chunk := 0; ; chunk++ {
		n := chunkLen(cut)
		m := Message[ID]{Kind: KindSnapshot, Updates: cut[:n], Stream: stream, Chunk: chunk}
		if cut = cut[n:]; len(cut) == 0 {
			m.Last, m.Clock, m.Peers = true, frontier, peers
		}
		if !send(m) {
			return false
		}
		if m.Last {
			return true
		}
	}
}

// RenderPush renders the carried flooding list for a pending push of ref at
// transmission time — the second late-binding hook of the coalescing sender.
// A push that waited behind a busy link leaves with the list accumulated up
// to the moment of transmission (every duplicate heard in between merged
// in), not the copy frozen when the forward was decided, so slow links
// propagate strictly better dedup information. ok is false when the engine
// no longer tracks the update (its state left the window, or a restart wiped
// it); such a push still travels, with an empty list. Must be called under
// the adapter's engine serialisation: it reads per-update state and may draw
// randomness for the ListMax truncation.
func (e *Engine[ID]) RenderPush(ref store.Ref) (rf []ID, ok bool) {
	state, ok := e.state(ref)
	if !ok {
		return nil, false
	}
	return e.Carried(state.rf.View()), true
}

// recordPullClock files the requester's clock into the stable-frontier
// bookkeeping. The clock is cloned: inbound messages may alias decoder
// scratch that the adapter reuses for the next frame.
func (e *Engine[ID]) recordPullClock(from ID, clock version.Clock) {
	if from == e.self || !e.validID(from) {
		return
	}
	e.pullClocks[from] = pullClock{clock: clock.Clone(), at: e.ep.Now()}
}

// StableFrontier returns the pointwise minimum clock across every peer whose
// pull request was heard within FrontierTTL ticks, or nil when none is
// known. Everything at or below the frontier has been seen by every
// recently-heard peer, so the store may compact it away; anyone further
// behind — including peers whose stale clocks FrontierTTL just expired — is
// caught up by snapshot instead. Expired entries are pruned as a side
// effect.
func (e *Engine[ID]) StableFrontier() version.Clock {
	now := e.ep.Now()
	var frontier version.Clock
	for id, pc := range e.pullClocks {
		if e.cfg.FrontierTTL > 0 && now-pc.at > e.cfg.FrontierTTL {
			delete(e.pullClocks, id)
			continue
		}
		if frontier == nil {
			frontier = pc.clock.Clone()
			continue
		}
		for origin := range frontier {
			if c := pc.clock.Get(origin); c < frontier[origin] {
				if c == 0 {
					delete(frontier, origin)
				} else {
					frontier[origin] = c
				}
			}
		}
	}
	return frontier
}

// HandlePullRespApplied ingests a KindPullResp or KindSnapshot message whose
// updates the adapter already offered to the store, in order; pre[i] is the
// outcome of m.Updates[i]. A snapshot chunk is a pull response whose updates
// are the responder's live state, not the receiver's gap — so store
// duplicates among them are neither news nor a push-tuning signal and are not
// offered to the hooks — followed by one position check that, at the end of
// an unbroken stream, adopts the frontier. Updates learned by pull are not
// re-pushed and get no flooding state: the push phase has already saturated
// the online population (§4.3's optimism), and a later push of one is a store
// duplicate. adopted reports that m completed a snapshot stream whose
// frontier the store adopted (snapshotChunk).
func (e *Engine[ID]) HandlePullRespApplied(from ID, m Message[ID], pre []Applied) (adopted bool) {
	e.Learn(from)
	e.learnAll(m.Peers)
	gotNew := false
	for i, u := range m.Updates {
		applied := pre[i].Res
		if applied == store.Applied {
			gotNew = true
		}
		if m.Kind == KindSnapshot && applied == store.Duplicate {
			continue
		}
		e.fireApply(u, applied, SourcePull, pre[i].Branches)
	}
	// An empty delta confirms we were current; so does a completed stream.
	current := len(m.Updates) == 0
	if m.Kind == KindSnapshot {
		adopted = e.snapshotChunk(from, m)
		current = adopted
	}
	if gotNew || current {
		e.notConfident = false
		e.lastReceived = e.ep.Now()
	}
	return adopted
}

// snapshotChunk advances from's stream position past one applied chunk and
// reports whether it completed the stream. A frontier certifies that every
// update at or below it that still matters was among the stream's records,
// so it is adopted only when chunks 0..Last of one stream arrived in order;
// anything else — a chunk lost to a reconnect, two streams interleaved —
// forgets the stream, and the next pull starts another. Adoption may carry
// this replica's own origin past the writer's counter (a rejoin after disk
// loss), hence the resync.
func (e *Engine[ID]) snapshotChunk(from ID, m Message[ID]) bool {
	if s := e.streams[from]; m.Chunk != 0 && (s.id != m.Stream || s.next != m.Chunk) {
		delete(e.streams, from)
		return false
	}
	if !m.Last {
		e.streams[from] = snapshotStream{id: m.Stream, next: m.Chunk + 1}
		return false
	}
	delete(e.streams, from)
	e.st.AdoptFrontier(m.Clock)
	e.w.Resync()
	return true
}

// --- Acknowledgements (§6) -------------------------------------------

func (e *Engine[ID]) handleAck(from ID) {
	if _, seen := e.ackedBy[from]; !seen {
		e.ackedOrder = append(e.ackedOrder, from)
	}
	e.ackedBy[from] = e.ep.Now()
	delete(e.suspects, from)
	delete(e.awaitingAck, from)
	if e.cfg.Acks {
		e.view.promote(from)
	}
	if e.cfg.Hooks.OnAck != nil {
		e.cfg.Hooks.OnAck(from)
	}
}

// suspect marks a peer as suspected offline: recorded in the suspect map and
// expiry queue, and moved to the view's suspended segment so sampling skips
// it without scanning.
func (e *Engine[ID]) suspect(peer ID, now int64) {
	e.suspects[peer] = now
	e.suspectQ.push(deadline[ID]{peer: peer, at: now})
	e.view.suspend(peer)
	if e.cfg.Hooks.OnSuspect != nil {
		e.cfg.Hooks.OnSuspect(peer)
	}
}

// detectMissingAcks moves peers whose ack is overdue onto the suspect list
// (§6: the pusher assumes they are offline and skips them for a while). The
// await queue is in creation order with monotone ticks, so the sweep pops
// expired entries from the front and stops at the first live one — O(1) per
// call plus O(1) amortised per expiry, instead of a full map scan.
func (e *Engine[ID]) detectMissingAcks(now int64) {
	if !e.cfg.Acks {
		return
	}
	for {
		head, ok := e.ackWaitQ.peek()
		if !ok || now-head.at < e.cfg.AckTimeout {
			return
		}
		e.ackWaitQ.pop()
		// Stale entries — the peer acked, or was re-pushed after an earlier
		// resolution — no longer match the map and are skipped.
		if sentAt, pending := e.awaitingAck[head.peer]; pending && sentAt == head.at {
			delete(e.awaitingAck, head.peer)
			e.suspect(head.peer, now)
		}
	}
}

// expireSuspects re-admits suspects after SuspectTTL ticks — "it is
// desirable that [the pusher] again forwards updates to [the peer] in remote
// future" (§6). Like the ack sweep it pops the queue front instead of
// scanning the map.
func (e *Engine[ID]) expireSuspects(now int64) {
	if !e.cfg.Acks {
		return
	}
	for {
		head, ok := e.suspectQ.peek()
		if !ok || now-head.at <= e.cfg.SuspectTTL {
			return
		}
		e.suspectQ.pop()
		if since, suspected := e.suspects[head.peer]; suspected && since == head.at {
			delete(e.suspects, head.peer)
			_, acked := e.ackedBy[head.peer]
			e.view.release(head.peer, acked)
		}
	}
}

// Sweep runs the ack-deadline and suspect-expiry sweeps immediately, for
// adapters and tests that need them outside Tick and sampling.
func (e *Engine[ID]) Sweep() {
	now := e.ep.Now()
	e.detectMissingAcks(now)
	e.expireSuspects(now)
}

// Suspects returns the peers currently suspected offline, in the order the
// suspicions were raised.
func (e *Engine[ID]) Suspects() []ID {
	return liveQueueEntries(&e.suspectQ, e.suspects)
}

// AwaitingAck returns the peers with an outstanding ack expectation, in the
// order the expectations were created.
func (e *Engine[ID]) AwaitingAck() []ID {
	return liveQueueEntries(&e.ackWaitQ, e.awaitingAck)
}

// liveQueueEntries walks a deadline queue in insertion order and keeps each
// peer whose live map entry matches the queued tick, once. The dedup
// matters when an entry is resolved and recreated within the same tick
// (synchronous adapters, coarse clocks): both queue entries then match the
// map, but the peer has only one live expectation.
func liveQueueEntries[ID comparable](q *queue[deadline[ID]], live map[ID]int64) []ID {
	out := make([]ID, 0, len(live))
	seen := make(map[ID]struct{}, len(live))
	for _, entry := range q.items[q.head:] {
		if at, ok := live[entry.peer]; !ok || at != entry.at {
			continue
		}
		if _, dup := seen[entry.peer]; dup {
			continue
		}
		seen[entry.peer] = struct{}{}
		out = append(out, entry.peer)
	}
	return out
}

// Acked returns the peers that have acknowledged a push, in first-ack order.
func (e *Engine[ID]) Acked() []ID {
	return append([]ID(nil), e.ackedOrder...)
}

// --- Target selection ------------------------------------------------

// SamplePeers draws up to k distinct known peers with the §6 ack
// preferences applied, for adapters and tests; it is the same choice the
// push and pull phases use.
func (e *Engine[ID]) SamplePeers(k int) []ID {
	out := e.sample(k)
	if out == nil {
		return nil
	}
	// The internal sample aliases the engine's scratch buffer; public
	// callers get a copy they may keep.
	kept := append([]ID(nil), out...)
	e.releaseScratch(out)
	return kept
}

// takeScratch claims the engine's reusable sampling buffer. A reentrant
// engine call (a synchronous adapter delivering a reply mid-send-loop) finds
// the buffer already claimed and falls back to a fresh allocation, which the
// matching releaseScratch then adopts for future calls.
func (e *Engine[ID]) takeScratch() []ID {
	buf := e.scratch
	e.scratch = nil
	if buf == nil {
		buf = make([]ID, 0, 16)
	}
	return buf[:0]
}

// releaseScratch returns a buffer obtained from sample/sampleExcluding.
func (e *Engine[ID]) releaseScratch(buf []ID) {
	if buf != nil {
		e.scratch = buf
	}
}

// sample draws up to k distinct known peers. With acks enabled,
// suspected-offline peers are skipped and recently-acking peers are
// preferred (§6). It is the "random subset R_p" choice of the push phase and
// the random peer choice of the pull phase.
//
// The result aliases the engine's scratch buffer: callers use it and hand it
// back with releaseScratch, copying first if it escapes the engine. The view
// keeps preferred/available/suspended peers in contiguous segments, so a
// draw is a partial Fisher–Yates costing O(k) — independent of the view size
// — and allocation-free on the steady path.
func (e *Engine[ID]) sample(k int) []ID {
	var zero ID
	return e.sampleFrom(k, zero, false)
}

// sampleExcluding is sample with one peer excluded — the pull-response path,
// which must not gossip the requester back to itself. The exclusion is a
// constant-time segment shrink, not a per-candidate filter.
func (e *Engine[ID]) sampleExcluding(k int, exclude ID) []ID {
	return e.sampleFrom(k, exclude, true)
}

func (e *Engine[ID]) sampleFrom(k int, exclude ID, haveExclude bool) []ID {
	if k <= 0 || e.view.Len() == 0 {
		return nil
	}
	if e.cfg.Acks && e.cfg.LazySweep {
		now := e.ep.Now()
		e.detectMissingAcks(now)
		e.expireSuspects(now)
	}
	out := e.takeScratch()
	return e.view.sampleInto(out, k, e.ep.Rand(), exclude, haveExclude)
}
