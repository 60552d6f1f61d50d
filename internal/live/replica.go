package live

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/replicalist"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// cryptoSeed draws a PRNG seed from the system entropy source. Unlike the
// classic time.Now().UnixNano() fallback it cannot collide across replicas
// created in the same instant (coarse clocks, VM snapshots, mass restarts).
func cryptoSeed() int64 { return store.CryptoSeed() }

// Config parameterises a live replica.
type Config struct {
	// Fanout is the number of peers each push targets (the paper's R·f_r).
	Fanout int
	// NewPF builds the per-update forwarding-probability schedule. Nil
	// means PF(t) = 1.
	NewPF func() pf.Func
	// PartialList enables the flooding-list optimisation.
	PartialList bool
	// ListMax caps the number of addresses carried per push (the live
	// analogue of L_thr·R); 0 means unlimited.
	ListMax int
	// PullAttempts is the number of peers contacted per pull batch.
	PullAttempts int
	// PullInterval is the period of background anti-entropy pulls; 0
	// disables periodic pulling (the eager pull at Start still happens
	// unless PullAttempts is 0).
	PullInterval time.Duration
	// Acks enables the §6 acknowledgement optimisation: receivers ack the
	// first copy of each update; senders prefer acking peers and skip
	// suspected-offline ones.
	Acks bool
	// AckTimeout is how long to wait for an ack before suspecting a peer
	// offline; 0 means 3s.
	AckTimeout time.Duration
	// SuspectTTL is how long suspected peers are skipped; 0 means 1m.
	SuspectTTL time.Duration
	// SnapshotCatchUp is the delta-size threshold above which a pull request
	// is answered with the responder's live cut — when that is smaller —
	// instead of an entry-by-entry delta; 0 disables the size trigger
	// (compaction gaps still force snapshots).
	SnapshotCatchUp int
	// FrontierTTL bounds how long a peer's last pull clock participates in
	// the stable compaction frontier; 0 means 10 minutes.
	FrontierTTL time.Duration
	// JanitorInterval is the period of the background janitor that GCs
	// expired tombstones, expires TTL'd keys, and compacts the update log up
	// to the stable frontier; 0 disables the janitor.
	JanitorInterval time.Duration
	// TombstoneRetention is how long tombstones outlive their delete before
	// the janitor collects them; 0 selects store.DefaultTombstoneRetention.
	TombstoneRetention time.Duration
	// KeyTTL expires live revisions whose write stamp is at least this old,
	// converting them to tombstones on the janitor's schedule; 0 disables
	// expiry. The decision depends only on the replicated stamp and the
	// shared policy, so replicas expire deterministically.
	KeyTTL time.Duration
	// Seed seeds the replica's random source; 0 draws a seed from
	// crypto/rand so concurrently created replicas cannot collide.
	Seed int64
	// Hooks observes protocol events (applies, acks, suspicions). All
	// callbacks are optional; see the Hooks type for the contract.
	Hooks Hooks
	// Metrics receives protocol counters; nil disables instrumentation.
	Metrics Metrics
	// WAL, when non-nil, makes applied state crash-consistent: every update
	// the store accepts (local publish and remote ingest) is appended to
	// the log before the apply is acknowledged, and RecoverWAL restores
	// checkpoint + surviving records on restart. The replica does not own
	// the log's lifecycle — the caller opens and closes it.
	WAL *wal.Log
	// WALCheckpointBytes is the resident log size beyond which the janitor
	// checkpoints (snapshot + prune); 0 means DefaultWALCheckpointBytes.
	WALCheckpointBytes int64
}

// DefaultReplicaConfig returns a production-ish configuration: fanout 5,
// PF(t)=0.9^t, partial lists, eager + periodic pull, and a minutely janitor
// keeping resident state bounded.
func DefaultReplicaConfig() Config {
	return Config{
		Fanout:          5,
		NewPF:           func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList:     true,
		PullAttempts:    3,
		PullInterval:    30 * time.Second,
		JanitorInterval: time.Minute,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Fanout < 0:
		return fmt.Errorf("live: fanout %d negative", c.Fanout)
	case c.ListMax < 0:
		return fmt.Errorf("live: list max %d negative", c.ListMax)
	case c.PullAttempts < 0:
		return fmt.Errorf("live: pull attempts %d negative", c.PullAttempts)
	case c.PullInterval < 0:
		return fmt.Errorf("live: pull interval %v negative", c.PullInterval)
	case c.AckTimeout < 0:
		return fmt.Errorf("live: ack timeout %v negative", c.AckTimeout)
	case c.SuspectTTL < 0:
		return fmt.Errorf("live: suspect ttl %v negative", c.SuspectTTL)
	case c.SnapshotCatchUp < 0:
		return fmt.Errorf("live: snapshot catch-up threshold %d negative", c.SnapshotCatchUp)
	case c.FrontierTTL < 0:
		return fmt.Errorf("live: frontier ttl %v negative", c.FrontierTTL)
	case c.JanitorInterval < 0:
		return fmt.Errorf("live: janitor interval %v negative", c.JanitorInterval)
	case c.TombstoneRetention < 0:
		return fmt.Errorf("live: tombstone retention %v negative", c.TombstoneRetention)
	case c.KeyTTL < 0:
		return fmt.Errorf("live: key ttl %v negative", c.KeyTTL)
	case c.WALCheckpointBytes < 0:
		return fmt.Errorf("live: wal checkpoint threshold %d negative", c.WALCheckpointBytes)
	default:
		return nil
	}
}

// Replica is a live protocol node. Create with NewReplica, then Start; Stop
// releases the background puller, the janitor and the per-peer senders — a
// replica that was never Started still spawns senders once it has something
// to send. All methods are safe for concurrent use.
//
// Replica is a thin adapter: the §4/§6 state machine lives in
// internal/engine, shared verbatim with the simulator. This type serialises
// engine access behind a mutex and queues the sends and hook events of each
// engine call, handling them after releasing the lock: events go to the
// user's hooks, sends into the destination's coalescing sender (sender.go),
// which alone converts them to wire envelopes and touches the transport. No
// transport or user callback ever runs under the mutex, and no caller of
// Publish or of the inbound handler ever waits on a peer's link.
type Replica struct {
	cfg       Config
	transport Transport
	addr      string
	st        store.Backend
	writer    *store.Writer

	mu     sync.Mutex
	eng    *engine.Engine[string]
	rng    *rand.Rand
	queued *runQueue // filled by the engine call in progress
	spare  sync.Pool // of flushed, cleared *runQueue (see run)

	// sendMu guards the sender registry. sendStopped mirrors the replica
	// stopping so no sender goroutine can be registered after Stop begins
	// waiting on bg.
	sendMu      sync.Mutex
	senders     map[string]*peerSender
	sendStopped bool
	// pendingBytes is the estimated footprint of every destination's
	// pending delta; pendingPeak is its high-water mark.
	pendingBytes atomic.Int64
	pendingPeak  atomic.Int64

	stop chan struct{}
	bg   sync.WaitGroup
	once sync.Once
}

// outbound is one queued engine send: one message bound for one or more
// destinations, deposited into their senders after the replica lock is
// released. The engine's push fanout emits the same push to k peers back to
// back; the endpoint folds those into one entry, because k copies of the
// message per update in a freshly grown outbox cost saturate_publish a tenth
// of its throughput in allocation alone (ten interleaved pairs, ISSUE 24).
type outbound struct {
	tos []string
	msg engine.Message[string]
}

// runQueue is what one engine call queues for after the lock: its sends and
// its hook events. reset clears it for reuse, keeping its backing arrays.
type runQueue struct {
	out    []outbound
	events []protoEvent
}

func (q *runQueue) reset() {
	clear(q.out)
	clear(q.events)
	q.out, q.events = q.out[:0], q.events[:0]
}

// protoEvent is one queued observability event, fired after the engine call
// that produced it releases the replica lock.
type protoEvent struct {
	kind     protoEventKind
	u        store.Update
	res      store.ApplyResult
	src      Source
	branches int
	peer     string
	frontier version.Clock
}

type protoEventKind int

const (
	evApply protoEventKind = iota + 1
	evDuplicate
	evAck
	evSuspect
	evCatchUp
)

// liveEndpoint adapts a Replica to the engine's Endpoint: wall-clock
// nanoseconds are the tick unit, and sends are queued on the outbox for the
// post-unlock flush.
type liveEndpoint struct{ r *Replica }

func (ep liveEndpoint) Self() string     { return ep.r.addr }
func (ep liveEndpoint) Now() int64       { return time.Now().UnixNano() }
func (ep liveEndpoint) Rand() *rand.Rand { return ep.r.rng }
func (ep liveEndpoint) Send(to string, m engine.Message[string]) {
	q := ep.r.queued
	if n := len(q.out); n > 0 && m.Kind == engine.KindPush {
		// Same update as the entry before it: the next target of one fanout.
		// The carried list needs no comparing — senders render it when the
		// push leaves (RenderPush), not from the deposit.
		if last := &q.out[n-1]; last.msg.Kind == engine.KindPush && last.msg.Update.Ref() == m.Update.Ref() {
			last.tos = append(last.tos, to)
			return
		}
	}
	q.out = append(q.out, outbound{tos: []string{to}, msg: m})
}

// NewReplica builds a replica on the given transport. The transport's
// handler is claimed by the replica.
func NewReplica(cfg Config, transport Transport) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if transport == nil {
		return nil, fmt.Errorf("live: nil transport")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cryptoSeed()
	}
	retain := cfg.TombstoneRetention
	if retain == 0 {
		retain = store.DefaultTombstoneRetention
	}
	r := &Replica{
		cfg:       cfg,
		transport: transport,
		addr:      transport.Addr(),
		st:        store.NewShardedWithRetention(0, retain),
		rng:       rand.New(rand.NewSource(seed)),
		queued:    new(runQueue),
		senders:   make(map[string]*peerSender),
		stop:      make(chan struct{}),
	}
	r.spare.New = func() any { return new(runQueue) }
	w, err := store.NewWriter(r.addr, r.st, time.Now,
		rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	r.writer = w
	eng, err := engine.New(engine.Config[string]{
		Fanout:          float64(cfg.Fanout),
		NewPF:           cfg.NewPF,
		PartialList:     cfg.PartialList,
		ListMax:         cfg.ListMax,
		TruncatePolicy:  replicalist.DropRandom,
		PullAttempts:    cfg.PullAttempts,
		Acks:            cfg.Acks,
		AckTimeout:      cfg.ackTimeout().Nanoseconds(),
		SuspectTTL:      cfg.suspectTTL().Nanoseconds(),
		SnapshotCatchUp: cfg.SnapshotCatchUp,
		FrontierTTL:     cfg.frontierTTL().Nanoseconds(),
		LazySweep:       true,
		QueryLocalVoice: true,
		DeferPullRender: true,
		ValidID:         func(addr string) bool { return addr != "" },
		Hooks: engine.Hooks[string]{
			OnApply: func(u store.Update, res store.ApplyResult, src Source, branches int) {
				r.queue(protoEvent{kind: evApply, u: u, res: res, src: src, branches: branches})
			},
			OnDuplicate: func(u store.Update, branches int) {
				r.queue(protoEvent{kind: evDuplicate, u: u, branches: branches})
			},
			OnAck: func(peer string) {
				r.queue(protoEvent{kind: evAck, peer: peer})
			},
			OnSuspect: func(peer string) {
				r.queue(protoEvent{kind: evSuspect, peer: peer})
			},
			OnCatchUp: func(frontier version.Clock) {
				r.queue(protoEvent{kind: evCatchUp, frontier: frontier})
			},
		},
	}, liveEndpoint{r}, r.st, w)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	r.eng = eng
	transport.SetHandler(r.handle)
	if br, ok := transport.(BatchReceiver); ok {
		br.SetBatchHandler(r.ingestPushes)
	}
	return r, nil
}

// queue records one hook event of the engine call in progress.
func (r *Replica) queue(ev protoEvent) {
	r.queued.events = append(r.queued.events, ev)
}

// run serialises one engine call and then flushes the sends and events it
// queued, outside the lock, from a queue swapped out for a spare.
func (r *Replica) run(f func(e *engine.Engine[string])) {
	r.mu.Lock()
	f(r.eng)
	q := r.queued
	if len(q.out) == 0 && len(q.events) == 0 {
		r.mu.Unlock()
		return
	}
	r.queued = r.spare.Get().(*runQueue)
	r.mu.Unlock()
	r.flush(q.events, q.out)
	q.reset()
	r.spare.Put(q)
}

func (r *Replica) flush(events []protoEvent, out []outbound) {
	for _, ev := range events {
		switch ev.kind {
		case evApply:
			r.fireApply(ev.u, ev.res, ev.src, ev.branches)
		case evDuplicate:
			r.inc(MetricPushDuplicate)
			r.fireApply(ev.u, store.Duplicate, SourcePush, ev.branches)
		case evAck:
			if r.cfg.Hooks.OnAck != nil {
				r.cfg.Hooks.OnAck(ev.peer)
			}
		case evSuspect:
			r.inc(MetricSuspects)
			if r.cfg.Hooks.OnSuspect != nil {
				r.cfg.Hooks.OnSuspect(ev.peer)
			}
		case evCatchUp:
			// Logged after the stream's updates (each chunk's were appended
			// before it entered the engine), so replay adopts the frontier
			// over records it can stand on.
			r.inc(MetricSnapshotCatchups)
			r.walAppendFrontier(ev.frontier)
		}
	}
	// Metrics for these sends fire at transmission time in the sender, not
	// here — a coalesced-away push was never sent.
	for i := range out {
		for _, to := range out[i].tos {
			r.depositTo(to, out[i].msg)
		}
	}
}

// depositTo merges one message into the destination's sender, creating it on
// demand. A sender caught mid-retire rejects the deposit; the loop then
// observes a fresh registry state and retries, so deposits are never lost
// to the idle-retire race. A nil sender means the replica is stopping and
// the deposit is intentionally dropped.
func (r *Replica) depositTo(to string, m engine.Message[string]) {
	for {
		s := r.senderFor(to)
		if s == nil {
			return
		}
		if s.deposit(m) {
			return
		}
	}
}

// senderFor returns the live sender for a destination, spawning one if
// needed. Returns nil once the replica is stopping — the registry is frozen
// so no goroutine joins bg after Stop starts waiting on it.
func (r *Replica) senderFor(to string) *peerSender {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	if r.sendStopped {
		return nil
	}
	s, ok := r.senders[to]
	if !ok {
		s = newPeerSender(r, to)
		r.senders[to] = s
		r.bg.Add(1)
		go s.run()
	}
	return s
}

// notePendingBytes moves the pending-memory gauge and maintains its
// high-water mark.
func (r *Replica) notePendingBytes(delta int64) {
	cur := r.pendingBytes.Add(delta)
	for {
		peak := r.pendingPeak.Load()
		if cur <= peak || r.pendingPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// PendingSendBytes reports the estimated bytes currently held in
// per-destination pending deltas and the high-water mark since the replica
// started. With coalescing senders this is bounded by O(live state) per
// destination regardless of traffic volume; the throttled-peer benchmark
// and the slow-consumer tests assert exactly that.
func (r *Replica) PendingSendBytes() (current, peak int64) {
	return r.pendingBytes.Load(), r.pendingPeak.Load()
}

// handle is the transport's inbound callback. The conversion from wire to
// engine form — and, for update-carrying messages, the store apply itself —
// runs here, on the connection-reader goroutine, outside the replica mutex;
// only the engine's protocol bookkeeping (r.run) is serialised. The sharded
// store stripes its locks by origin and key, so readers draining different
// peers apply concurrently and the critical section shrinks to membership,
// flooding lists, and the forwarding decision. The transport decodes frames
// into reused envelope structs, so container fields must be consumed before
// returning; everything handed to the engine that outlives this call (update
// values, version histories, strings) is decoder-fresh.
func (r *Replica) handle(env wire.Envelope) {
	switch env.Kind {
	case wire.KindPush:
		r.ingestPushes([]wire.Envelope{env})
	case wire.KindPullReq:
		r.run(func(e *engine.Engine[string]) {
			e.Handle(env.From, engine.Message[string]{
				Kind: engine.KindPullReq, Clock: env.Clock,
			})
		})
	case wire.KindPullResp, wire.KindSnapshot:
		// A snapshot chunk is a pull response with a stream position: the
		// applies run here like any other, and the engine adopts the frontier
		// once the stream's last chunk arrives behind all the others.
		updates := make([]store.Update, len(env.Updates))
		pre := make([]engine.Applied, len(env.Updates))
		for i := range env.Updates {
			updates[i] = env.Updates[i].ToStore()
			res, branches := r.st.ApplyObserved(updates[i])
			pre[i] = engine.Applied{Res: res, Branches: branches}
		}
		r.walAppendApplied(updates, pre)
		msg := engine.Message[string]{Kind: engine.KindPullResp, Updates: updates, Peers: env.KnownPeers}
		if env.Kind == wire.KindSnapshot {
			msg.Kind, msg.Stream, msg.Chunk = engine.KindSnapshot, env.Stream, env.Chunk
			msg.Last, msg.Clock = env.Last, env.Clock
		}
		r.run(func(e *engine.Engine[string]) { e.HandlePullRespApplied(env.From, msg, pre) })
	case wire.KindAck:
		r.inc(MetricAckReceived)
		r.run(func(e *engine.Engine[string]) {
			e.Handle(env.From, engine.Message[string]{
				Kind: engine.KindAck, UpdateRef: env.UpdateRef,
			})
		})
	case wire.KindQuery:
		r.inc(MetricQueryServed)
		r.run(func(e *engine.Engine[string]) {
			e.Handle(env.From, engine.Message[string]{
				Kind: engine.KindQuery, QID: env.QID, Key: env.Key,
			})
		})
	case wire.KindQueryResp:
		r.run(func(e *engine.Engine[string]) {
			e.Handle(env.From, engine.Message[string]{
				Kind: engine.KindQueryResp, QID: env.QID, Key: env.Key,
				Found: env.Found, Value: env.Value, Version: env.Version,
				Confident: env.Confident,
			})
		})
	}
}

// envelopeFromEngine converts an engine message to its wire form.
func envelopeFromEngine(from string, m engine.Message[string]) wire.Envelope {
	env := wire.Envelope{From: from}
	switch m.Kind {
	case engine.KindPush:
		env.Kind = wire.KindPush
		env.Update = wire.FromStore(m.Update)
		env.RF = m.RF
		env.T = m.T
	case engine.KindPullReq:
		env.Kind = wire.KindPullReq
		env.Clock = m.Clock
	case engine.KindPullResp, engine.KindSnapshot:
		env.Kind = wire.KindPullResp
		env.Updates = make([]wire.Update, len(m.Updates))
		for i, u := range m.Updates {
			env.Updates[i] = wire.FromStore(u)
		}
		env.KnownPeers = m.Peers
		if m.Kind == engine.KindSnapshot {
			env.Kind, env.Stream, env.Chunk = wire.KindSnapshot, m.Stream, m.Chunk
			env.Last, env.Clock = m.Last, m.Clock
		}
	case engine.KindAck:
		env.Kind = wire.KindAck
		env.UpdateRef = m.UpdateRef
	case engine.KindQuery:
		env.Kind = wire.KindQuery
		env.QID = m.QID
		env.Key = m.Key
	case engine.KindQueryResp:
		env.Kind = wire.KindQueryResp
		env.QID = m.QID
		env.Key = m.Key
		env.Found = m.Found
		env.Value = m.Value
		env.Confident = m.Confident
		env.Version = m.Version
	}
	return env
}

// ingestPushes is the one push-ingest body, for a run of pushes from one
// connection (BatchReceiver; a run of one from handle): every store apply,
// then one WAL call for every record, then one engine section. Each apply
// precedes its record, so a later checkpoint covers every sealed segment,
// and the run's records reach the kernel before the engine acts on any push.
func (r *Replica) ingestPushes(envs []wire.Envelope) {
	us := make([]store.Update, len(envs))
	for i := range envs {
		us[i] = envs[i].Update.ToStore()
	}
	pre := r.applyPushes(us)
	r.walAppendApplied(us, pre)
	r.add(MetricPushReceived, len(envs))
	r.run(func(e *engine.Engine[string]) {
		for i := range envs {
			e.HandlePushApplied(envs[i].From, engine.Message[string]{
				Kind: engine.KindPush, Update: us[i], RF: envs[i].RF, T: envs[i].T,
			}, pre[i])
		}
	})
}

// applyPushes offers pushed updates to the store, in order, outside the
// engine lock. Updates the store has Seen skip the write: that reads only the
// origin's log shard, so duplicate floods never contend on item shards.
func (r *Replica) applyPushes(us []store.Update) []engine.Applied {
	pre := make([]engine.Applied, len(us))
	for i, u := range us {
		if r.st.Seen(u.Ref()) {
			pre[i] = engine.Applied{Res: store.Duplicate, Branches: r.st.BranchCount(u.Key)}
		} else {
			pre[i].Res, pre[i].Branches = r.st.ApplyObserved(u)
		}
	}
	return pre
}

// Addr returns the replica's address.
func (r *Replica) Addr() string { return r.addr }

// Store returns the replica's data store.
func (r *Replica) Store() store.Backend { return r.st }

// AddPeers teaches the replica about other replica addresses. Empty
// addresses and the replica's own are ignored.
func (r *Replica) AddPeers(addrs ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range addrs {
		r.eng.Learn(a)
	}
}

// Peers returns a copy of the known replica addresses.
func (r *Replica) Peers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.KnownPeers()
}

// PeerCount returns the number of known replica addresses without copying
// the list.
func (r *Replica) PeerCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.KnownCount()
}

// HasUpdate reports whether the replica's store has seen the update with the
// given ID (store.Update.ID()). It reads only the origin's log shard.
func (r *Replica) HasUpdate(updateID string) bool {
	ref, err := store.ParseRef(updateID)
	return err == nil && r.st.Seen(ref)
}

// Start launches the background puller and janitor and performs the
// coming-online pull.
func (r *Replica) Start() {
	if r.cfg.PullInterval > 0 {
		r.bg.Add(1)
		go r.pullLoop()
	}
	if r.cfg.JanitorInterval > 0 {
		r.bg.Add(1)
		go r.janitorLoop()
	}
	if r.cfg.PullAttempts > 0 {
		r.PullNow()
	}
}

// Stop terminates the background goroutines — puller, janitor, and every
// per-peer sender, whose undelivered pending deltas are discarded — and
// waits for them to exit. It is idempotent.
func (r *Replica) Stop() {
	r.once.Do(func() {
		// Freeze the sender registry before signalling: nothing can call
		// bg.Add once sendStopped is set, so the Wait below is race-free.
		r.sendMu.Lock()
		r.sendStopped = true
		r.sendMu.Unlock()
		close(r.stop)
	})
	r.bg.Wait()
}

func (r *Replica) pullLoop() {
	defer r.bg.Done()
	ticker := time.NewTicker(r.cfg.PullInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if r.cfg.PullAttempts > 0 {
				r.PullNow()
			}
		case <-r.stop:
			return
		}
	}
}

func (r *Replica) janitorLoop() {
	defer r.bg.Done()
	ticker := time.NewTicker(r.cfg.JanitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.RunJanitor()
		case <-r.stop:
			return
		}
	}
}

// RunJanitor performs one maintenance pass: expire TTL'd keys into
// tombstones, collect tombstones past retention, and compact the update log
// up to the stable frontier (the pointwise-minimum clock across recently
// pulling peers). The janitor ticker calls it on JanitorInterval; tests and
// operators may call it directly.
func (r *Replica) RunJanitor() {
	r.mu.Lock()
	frontier := r.eng.StableFrontier()
	r.mu.Unlock()
	expired, collected, compacted := store.RunJanitor(r.st, time.Now(), r.cfg.KeyTTL, frontier)
	if expired > 0 {
		r.add(MetricKeysExpired, expired)
	}
	if collected > 0 {
		r.add(MetricTombstonesGC, collected)
	}
	if compacted > 0 {
		r.add(MetricLogCompacted, compacted)
	}
	r.maybeCheckpointWAL()
}

// Publish creates and pushes an update for key. The write itself — sequence
// assignment, version extension, store apply — runs on the calling goroutine
// through the self-serialising Writer and the lock-striped store; only the
// push initiation enters the engine's critical section. With a WAL
// configured the update is logged (and, policy permitting, fsynced) before
// Publish returns; a logging failure returns the update with an error — the
// write is applied locally but not durable, and is not pushed.
func (r *Replica) Publish(key string, value []byte) (store.Update, error) {
	u, branches := r.writer.PutObserved(key, value)
	if err := r.walAppend(u); err != nil {
		return u, err
	}
	r.run(func(e *engine.Engine[string]) { e.PublishApplied(u, branches) })
	return u, nil
}

// Delete creates and pushes a tombstone for key. The durability contract
// matches Publish.
func (r *Replica) Delete(key string) (store.Update, error) {
	u, branches := r.writer.DeleteObserved(key)
	if err := r.walAppend(u); err != nil {
		return u, err
	}
	r.run(func(e *engine.Engine[string]) { e.PublishApplied(u, branches) })
	return u, nil
}

// Get reads the winning revision for key from the local store.
func (r *Replica) Get(key string) (store.Revision, bool) { return r.st.Get(key) }

// PullNow performs one pull batch immediately.
func (r *Replica) PullNow() {
	r.run(func(e *engine.Engine[string]) { e.PullNow() })
}

// WriteSnapshot serialises the replica's full update log to w, for restarts.
func (r *Replica) WriteSnapshot(w io.Writer) error {
	return r.st.WriteSnapshot(w)
}

// RestoreSnapshot replaces the replica's state with a snapshot previously
// produced by WriteSnapshot (on this or another replica). The writer's
// sequence counter advances so new updates never reuse sequence numbers.
// Call before Start.
func (r *Replica) RestoreSnapshot(rd io.Reader) error {
	if err := r.st.RestoreSnapshot(rd); err != nil {
		return err
	}
	r.writer.Resync()
	return nil
}
