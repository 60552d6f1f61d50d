package live

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
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
	// the log before the apply is acknowledged, and RecoverWAL replays it on
	// restart. The replica does not own the log's lifecycle — the caller
	// opens and closes it.
	WAL *wal.Log
	// WALCheckpointBytes is the resident log size beyond which the janitor
	// checkpoints (store image + prune); 0 means DefaultWALCheckpointBytes.
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
// internal/engine, shared verbatim with the simulator. One mutex, mu,
// serialises the engine and everything an engine call writes: each send
// merges straight into the destination's pending delta (sender.go), and the
// engine's hooks fire in place. Only the destination's sender goroutine
// renders wire envelopes and touches the transport, outside the mutex, so no
// caller of Publish or of the inbound handler ever waits on a peer's link.
type Replica struct {
	cfg       Config
	transport Transport
	addr      string
	st        *store.Sharded
	writer    *store.Writer
	ingest    sync.Pool // of cleared *ingestScratch (see borrowScratch)

	// mu guards the engine and what its sends write: the sender registry,
	// each sender's deposit buffer and the pending-bytes gauge — the
	// estimated footprint of every destination's pending delta, with its
	// high-water mark. stopped freezes the registry so no sender goroutine
	// joins bg after Stop begins waiting on it.
	mu           sync.Mutex
	eng          *engine.Engine[string]
	rng          *rand.Rand
	senders      map[string]*peerSender
	stopped      bool
	pendingBytes int64
	pendingPeak  int64

	stop chan struct{}
	bg   sync.WaitGroup
	once sync.Once
}

// liveEndpoint adapts a Replica to the engine's Endpoint: wall-clock
// nanoseconds are the tick unit, and each send merges into the destination's
// pending delta under the engine lock the caller holds.
type liveEndpoint struct{ r *Replica }

func (ep liveEndpoint) Self() string     { return ep.r.addr }
func (ep liveEndpoint) Now() int64       { return time.Now().UnixNano() }
func (ep liveEndpoint) Rand() *rand.Rand { return ep.r.rng }
func (ep liveEndpoint) Send(to string, m engine.Message[string]) {
	r := ep.r
	if r.stopped {
		return
	}
	s, ok := r.senders[to]
	if !ok {
		s = newPeerSender(r, to)
		r.senders[to] = s
		r.bg.Add(1)
		go s.run()
	}
	s.deposit(m)
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
	r := &Replica{
		cfg:       cfg,
		transport: transport,
		addr:      transport.Addr(),
		st:        store.NewShardedWithRetention(0, orDefault(cfg.TombstoneRetention, store.DefaultTombstoneRetention)),
		rng:       rand.New(rand.NewSource(seed)),
		senders:   make(map[string]*peerSender),
		stop:      make(chan struct{}),
	}
	r.ingest.New = func() any { return new(ingestScratch) }
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
		PullAttempts:    cfg.PullAttempts,
		Acks:            cfg.Acks,
		AckTimeout:      orDefault(cfg.AckTimeout, defaultAckTimeout).Nanoseconds(),
		SuspectTTL:      orDefault(cfg.SuspectTTL, defaultSuspectTTL).Nanoseconds(),
		SnapshotCatchUp: cfg.SnapshotCatchUp,
		FrontierTTL:     defaultFrontierTTL.Nanoseconds(),
		LazySweep:       true,
		QueryLocalVoice: true,
		DeferPullRender: true,
		ValidID:         func(addr string) bool { return addr != "" },
		Hooks: engine.Hooks[string]{
			OnApply: r.fireApply,
			OnDuplicate: func(u store.Update, branches int) {
				r.inc(MetricPushDuplicate)
				r.fireApply(u, store.Duplicate, SourcePush, branches)
			},
			OnAck: cfg.Hooks.OnAck,
			OnSuspect: func(peer string) {
				r.inc(MetricSuspects)
				if cfg.Hooks.OnSuspect != nil {
					cfg.Hooks.OnSuspect(peer)
				}
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

// run serialises one engine call under the engine lock; its sends and hook
// calls happen inside it.
func (r *Replica) run(f func(e *engine.Engine[string])) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.eng)
}

// PendingSendBytes reports the estimated bytes currently held in
// per-destination pending deltas and the high-water mark since the replica
// started. With coalescing senders this is bounded by O(live state) per
// destination regardless of traffic volume; the throttled-peer benchmark
// and the slow-consumer tests assert exactly that.
func (r *Replica) PendingSendBytes() (current, peak int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pendingBytes, r.pendingPeak
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
		sc := r.borrowScratch(len(env.Updates))
		defer r.returnScratch(sc)
		for i := range env.Updates {
			sc.us[i] = env.Updates[i].ToStore()
			sc.pre[i].Res, sc.pre[i].Branches = r.st.ApplyObserved(sc.us[i])
		}
		r.walAppendApplied(sc)
		msg := engine.Message[string]{Kind: engine.KindPullResp, Updates: sc.us, Peers: env.KnownPeers}
		if env.Kind == wire.KindSnapshot {
			msg.Kind, msg.Stream, msg.Chunk = engine.KindSnapshot, env.Stream, env.Chunk
			msg.Last, msg.Clock = env.Last, env.Clock
		}
		var adopted bool
		r.run(func(e *engine.Engine[string]) { adopted = e.HandlePullRespApplied(env.From, msg, sc.pre) })
		if adopted {
			// Logged after the stream's updates (each chunk's were appended
			// before it entered the engine), so replay adopts the frontier
			// over records it can stand on.
			r.inc(MetricSnapshotCatchups)
			r.walAppendFrontier(env.Clock)
		}
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
	sc := r.borrowScratch(len(envs))
	defer r.returnScratch(sc)
	for i := range envs {
		sc.us[i] = envs[i].Update.ToStore()
	}
	r.applyPushes(sc.us, sc.pre)
	r.walAppendApplied(sc)
	r.add(MetricPushReceived, len(envs))
	r.run(func(e *engine.Engine[string]) {
		for i := range envs {
			e.HandlePushApplied(envs[i].From, engine.Message[string]{
				Kind: engine.KindPush, Update: sc.us[i], RF: envs[i].RF, T: envs[i].T,
			}, sc.pre[i])
		}
	})
}

// applyPushes offers pushed updates to the store, in order, outside the
// engine lock, writing each outcome to pre. Updates the store has Seen skip
// the write: that reads only the origin's log shard, so duplicate floods
// never contend on item shards.
func (r *Replica) applyPushes(us []store.Update, pre []engine.Applied) {
	for i, u := range us {
		if r.st.Seen(u.Ref()) {
			pre[i] = engine.Applied{Res: store.Duplicate, Branches: r.st.BranchCount(u.Key)}
		} else {
			pre[i].Res, pre[i].Branches = r.st.ApplyObserved(u)
		}
	}
}

// ingestScratch is the working memory of one ingested run — a run of pushes,
// a pull response or a snapshot chunk: its updates, their apply outcomes and
// the WAL's fresh records. Nothing in it outlives the run (the engine copies
// what it keeps), so runs borrow it from a pool instead of allocating it.
type ingestScratch struct {
	us    []store.Update
	pre   []engine.Applied
	fresh []store.Update
}

// maxIngestScratch caps the run length whose scratch goes back to the pool;
// an outsized delta's is left to the collector.
const maxIngestScratch = 4096

// borrowScratch returns a scratch sized for a run of n.
func (r *Replica) borrowScratch(n int) *ingestScratch {
	sc := r.ingest.Get().(*ingestScratch)
	sc.us, sc.pre = slices.Grow(sc.us, n)[:n], slices.Grow(sc.pre, n)[:n]
	return sc
}

// returnScratch clears a run's scratch, so the pool pins none of its values,
// and pools it.
func (r *Replica) returnScratch(sc *ingestScratch) {
	if cap(sc.us) > maxIngestScratch {
		return
	}
	clear(sc.us)
	clear(sc.fresh)
	sc.us, sc.pre, sc.fresh = sc.us[:0], sc.pre[:0], sc.fresh[:0]
	r.ingest.Put(sc)
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
		// bg.Add once stopped is set, so the Wait below is race-free.
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
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
