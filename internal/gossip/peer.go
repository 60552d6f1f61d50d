package gossip

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/store"
)

// Simulator time constants, in rounds (one round = one engine tick).
const (
	// ackTimeoutRounds is how long a pushed peer has to ack before being
	// suspected offline: one round for the push, one for the reply.
	ackTimeoutRounds = 2
	// queryTimeoutRounds is how long a query waits for responses before
	// finishing with what arrived.
	queryTimeoutRounds = 10
)

// Peer is one replica running the hybrid push/pull protocol in the
// round-based simulator. It is a thin adapter: the §4/§6 state machine
// lives in internal/engine, shared verbatim with the live runtime; this
// type only translates between simnet's message/round model (int peer
// indices, engine messages charged their wire size) and the engine.
type Peer struct {
	id    int
	cfg   Config
	eng   *engine.Engine[int]
	st    *store.Sharded
	w     *store.Writer
	lists listSizes // the last flooding list emit sized

	// env is the simulation environment of the callback currently running;
	// the engine reaches time, randomness, and delivery through it.
	env *simnet.Env
	// round mirrors the engine round, updated on every callback; the
	// writer's simulated clock derives from it.
	round int

	// snapshot is the durable image captured at crash time; Restart
	// recovers from it. bootstrap is the seed peer list a restarted
	// process re-learns (its config file); nil means the membership view
	// held at crash time (a persisted peer cache).
	snapshot  []byte
	bootstrap []int

	// Link-budget coalescing state, active only with cfg.LinkBudget > 0:
	// per-destination pending deltas for over-budget traffic (the type the
	// live per-peer senders hold), tokens spent per destination this round,
	// and the lifetime peak pending size the scenario invariants read.
	pendingOut  map[int]*engine.Pending[int]
	spent       map[int]int
	spentRound  int
	peakPending int
}

var (
	_ simnet.Node        = (*Peer)(nil)
	_ simnet.Restartable = (*Peer)(nil)
)

// simEndpoint adapts a Peer to the engine's Endpoint: simulated time is the
// round number, randomness is the engine-wide deterministic source, and
// sends become simnet messages charged with the byte size the live binary
// codec would put on the wire (messages.go).
type simEndpoint struct{ p *Peer }

func (s simEndpoint) Self() int        { return s.p.id }
func (s simEndpoint) Now() int64       { return int64(s.p.round) }
func (s simEndpoint) Rand() *rand.Rand { return s.p.env.RNG() }
func (s simEndpoint) Send(to int, m engine.Message[int]) {
	p := s.p
	if p.cfg.LinkBudget > 0 {
		p.refreshBudget()
		// Over budget — or behind earlier pending traffic, which must not
		// be overtaken — the message merges into the destination's pending
		// delta instead of going on the wire.
		if p.spent[to] >= p.cfg.LinkBudget || p.pendingOut[to] != nil {
			p.deposit(to, m)
			return
		}
		p.spent[to]++
	}
	p.emit(to, m)
}

// refreshBudget resets the per-destination token counts at the first send
// of each round.
func (p *Peer) refreshBudget() {
	if p.spent == nil {
		p.spent = make(map[int]int)
		p.spentRound = p.round
		return
	}
	if p.spentRound != p.round {
		clear(p.spent)
		p.spentRound = p.round
	}
}

// deposit merges one over-budget message into the destination's pending
// delta and tracks the peak pending size for the scenario invariant.
func (p *Peer) deposit(to int, m engine.Message[int]) {
	sp := p.pendingOut[to]
	if sp == nil {
		if p.pendingOut == nil {
			p.pendingOut = make(map[int]*engine.Pending[int])
		}
		sp = new(engine.Pending[int])
		p.pendingOut[to] = sp
	}
	sp.Add(m)
	if n := sp.Len(); n > p.peakPending {
		p.peakPending = n
	}
}

// drainPending emits pending messages until each destination's LinkBudget
// for the round is spent, in sorted destination order so the deterministic
// message stream does not depend on map iteration, with everything
// late-bound: flooding lists from engine state, the pull-request clock from
// the store, the pull answer (in emit) from the coalesced clock. The
// remainder stays pending — and keeps merging — for the next round.
func (p *Peer) drainPending() {
	dests := make([]int, 0, len(p.pendingOut))
	for to := range p.pendingOut {
		dests = append(dests, to)
	}
	sort.Ints(dests)
	for _, to := range dests {
		sp := p.pendingOut[to]
		for p.spent[to] < p.cfg.LinkBudget {
			m, ok := sp.Pop()
			if !ok {
				break
			}
			switch m.Kind {
			case engine.KindPush:
				m.RF, _ = p.eng.RenderPush(m.Update.Ref())
			case engine.KindPullReq:
				m.Clock = p.st.Clock()
			}
			p.emit(to, m)
			p.spent[to]++
		}
		if sp.Len() == 0 {
			delete(p.pendingOut, to)
		}
	}
}

// PeakPendingPerDest reports the largest pending-delta size (distinct
// coalesced items) any single destination accumulated over the peer's
// lifetime. Zero unless LinkBudget is set. The slow-link scenarios assert
// this stays bounded by the live-state size rather than traffic volume —
// with eventual delivery through a throttled link, the coalescing design's
// two load-bearing properties, checked deterministically here because no
// wall-clock test of the TCP path can.
func (p *Peer) PeakPendingPerDest() int { return p.peakPending }

// emit puts one engine message on the simulated wire, charging the byte
// size the live binary codec would. A deferred pull answer — the intent of
// Config.DeferPullRender, on exactly when LinkBudget is — is rendered here,
// at transmission time; the answer's chunks, of a delta or of a snapshot
// stream, together spend the one link token the intent was admitted on.
func (p *Peer) emit(to int, m engine.Message[int]) {
	if m.IsPullIntent() {
		p.eng.AnswerPull(m.Clock, m.Peers, func(answer engine.Message[int]) bool {
			p.emit(to, answer)
			return true
		})
		return
	}
	bytes := frameBytes(p.id) + messageBytes(m, &p.lists)
	p.env.Send(to, m, bytes)
	reg := p.env.Metrics()
	switch m.Kind {
	case engine.KindPush:
		reg.Inc(MetricPushes)
		reg.Add(MetricPushBytes, float64(bytes))
	case engine.KindPullReq:
		reg.Inc(MetricPullRequests)
	case engine.KindPullResp:
		reg.Inc(MetricPullResponses)
		reg.Add(MetricPullUpdates, float64(len(m.Updates)))
	case engine.KindAck:
		reg.Inc(MetricAcks)
	case engine.KindQuery:
		reg.Inc(MetricQueries)
	case engine.KindQueryResp:
		reg.Inc(MetricQueryResponses)
	case engine.KindSnapshot:
		if m.Last {
			reg.Inc(MetricSnapshots)
		}
		reg.Add(MetricSnapshotBytes, float64(bytes))
	}
}

// NewPeer constructs a peer with the given index and configuration. The view
// starts empty; populate it via Learn or the BuildNetwork helper.
func NewPeer(id int, cfg Config) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Peers run the same sharded store as the live runtime — the simulator
	// is single-threaded, but every deterministic scenario then exercises
	// the sharded code paths (routing, clock composition, canonical
	// ordering). The sharded store draws no randomness, so scenario streams
	// are unaffected.
	retain := time.Duration(cfg.TombstoneRetention) * time.Second
	if retain == 0 {
		retain = store.DefaultTombstoneRetention
	}
	st := store.NewShardedWithRetention(4, retain)
	p := &Peer{id: id, cfg: cfg, st: st}
	w, err := store.NewWriter(fmt.Sprintf("peer-%d", id), st, p.now,
		rand.New(&lazySource{seed: int64(id) + 1}))
	if err != nil {
		return nil, err
	}
	listMax := 0
	if cfg.ListThreshold > 0 {
		// L_thr is normalised over R; thresholds below one entry still
		// carry a single id so the wire list stays meaningful.
		if listMax = int(cfg.ListThreshold * float64(cfg.R)); listMax < 1 {
			listMax = 1
		}
	}
	eng, err := engine.New(engine.Config[int]{
		Fanout:          float64(cfg.R) * cfg.Fr,
		NewPF:           cfg.NewPF,
		PartialList:     cfg.PartialList,
		ListMax:         listMax,
		Population:      cfg.R,
		PullAttempts:    cfg.PullAttempts,
		LazyPull:        cfg.LazyPull,
		PullTimeout:     int64(cfg.PullTimeout),
		Acks:            cfg.Acks,
		AckTimeout:      ackTimeoutRounds,
		SuspectTTL:      int64(cfg.suspectTTL()),
		SnapshotCatchUp: cfg.SnapshotCatchUp,
		FrontierTTL:     int64(cfg.FrontierTTL),
		QueryTimeout:    queryTimeoutRounds,
		DeferPullRender: cfg.LinkBudget > 0,
		Hooks: engine.Hooks[int]{
			OnLearned: func(n int) {
				p.env.Metrics().Add(MetricReplicasLearned, float64(n))
			},
			OnDuplicate: func(store.Update, int) {
				p.env.Metrics().Inc(MetricDuplicates)
			},
		},
	}, simEndpoint{p}, st, w)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	p.w = w
	return p, nil
}

// SetBootstrap configures the peer list re-learned after a crash/restart —
// the static seed addresses a real deployment reads from its config. Without
// it, Restart falls back to the membership view held at crash time.
func (p *Peer) SetBootstrap(ids ...int) {
	p.bootstrap = append([]int(nil), ids...)
}

// Crash implements simnet.Restartable: the process dies. The update log —
// the durable state — is captured as a snapshot; everything volatile (the
// in-memory store image, flooding lists, PF state, ack/suspect bookkeeping,
// membership view) is wiped.
func (p *Peer) Crash(env *simnet.Env) {
	p.bind(env)
	if p.bootstrap == nil {
		// No configured seed list: model a persisted peer cache by
		// remembering the view held at crash time.
		p.bootstrap = p.eng.KnownPeers()
	}
	var buf bytes.Buffer
	if err := p.st.WriteSnapshot(&buf); err == nil {
		p.snapshot = buf.Bytes()
	} else {
		p.snapshot = nil // disk died with the process
	}
	p.st.Reset()
	p.eng.Restart(nil)
	// Pending deltas and budget tokens are process state, not durable: the
	// crash drops exactly this peer's undelivered coalesced traffic.
	p.pendingOut = nil
	p.spent = nil
}

// Restart implements simnet.Restartable: the process comes back, restores
// the store from the crash-time snapshot, resyncs the writer's sequence
// counter, and re-learns the bootstrap peers. Updates missed while down
// arrive through pull anti-entropy once the engine's CameOnline fires.
func (p *Peer) Restart(env *simnet.Env) {
	p.bind(env)
	if p.snapshot != nil {
		// Restore failures leave an empty store: the peer rejoins as a
		// fresh replica and recovers everything by pulling.
		_ = p.st.RestoreSnapshot(bytes.NewReader(p.snapshot))
	}
	p.w.Resync()
	p.eng.Restart(p.bootstrap)
}

// bind points the peer at the environment of the callback currently running.
func (p *Peer) bind(env *simnet.Env) {
	p.env = env
	p.round = env.Round()
}

// now is the peer's simulated wall clock: one round = one second, offset
// into a plausible epoch so tombstone retention arithmetic behaves. The
// writer stamps updates with it and the janitor measures TTLs against it.
func (p *Peer) now() time.Time {
	return time.Unix(1_700_000_000+int64(p.round), 0)
}

// ID returns the peer's index.
func (p *Peer) ID() int { return p.id }

// Store returns the peer's replica store.
func (p *Peer) Store() store.Backend { return p.st }

// Learn adds id to the peer's membership view (ignoring the peer itself)
// and reports whether it was new.
func (p *Peer) Learn(id int) bool { return p.eng.Learn(id) }

// Knows reports whether id is in the peer's membership view.
func (p *Peer) Knows(id int) bool { return p.eng.Knows(id) }

// KnownPeers returns a copy of the membership view in the engine's
// partition order: preferred, available, then suspended peers. Sampling
// reorders each segment in place, so the order is not insertion order.
func (p *Peer) KnownPeers() []int { return p.eng.KnownPeers() }

// KnownCount returns the number of known replicas.
func (p *Peer) KnownCount() int { return p.eng.KnownCount() }

// HasUpdate reports whether the peer's store has seen the update with the
// given ID (store.Update.ID()).
func (p *Peer) HasUpdate(updateID string) bool {
	ref, err := store.ParseRef(updateID)
	return err == nil && p.st.Seen(ref)
}

// Duplicates returns the duplicate-push count observed for an update while
// the peer keeps its flooding state: for updates it published or pushed on,
// until they leave the engine's window; 0 otherwise.
func (p *Peer) Duplicates(updateID string) int { return p.eng.Duplicates(updateID) }

// Init implements simnet.Node.
func (p *Peer) Init(*simnet.Env) {}

// CameOnline implements simnet.Node: the pull-phase trigger.
func (p *Peer) CameOnline(env *simnet.Env) {
	p.bind(env)
	p.eng.CameOnline()
}

// Tick implements simnet.Node. Beyond the engine tick it drives the two
// periodic maintenance cadences: anti-entropy pulls every PullEvery rounds
// and the janitor every CompactEvery rounds.
func (p *Peer) Tick(env *simnet.Env) {
	p.bind(env)
	if p.cfg.LinkBudget > 0 {
		// Fresh round, fresh tokens: drain what earlier rounds coalesced
		// before the engine generates new traffic.
		p.refreshBudget()
		p.drainPending()
	}
	p.eng.Tick()
	if every := p.cfg.PullEvery; every > 0 && p.round > 0 && p.round%every == 0 {
		p.eng.PullNow()
	}
	if every := p.cfg.CompactEvery; every > 0 && p.round > 0 && p.round%every == 0 {
		p.runJanitor()
	}
}

// runJanitor performs one maintenance pass (store.RunJanitor) up to the
// engine's stable frontier.
func (p *Peer) runJanitor() {
	expired, collected, compacted := store.RunJanitor(p.st, p.now(),
		time.Duration(p.cfg.KeyTTL)*time.Second, p.eng.StableFrontier())
	reg := p.env.Metrics()
	if expired > 0 {
		reg.Add(MetricKeysExpired, float64(expired))
	}
	if collected > 0 {
		reg.Add(MetricTombstonesGC, float64(collected))
	}
	if compacted > 0 {
		reg.Add(MetricLogCompacted, float64(compacted))
	}
}

// HandleMessage implements simnet.Node. Payloads that are not engine
// messages are ignored. Update-carrying messages follow the engine's one
// ingest contract, as live.Replica does: the peer offers the updates to its
// store, then enters the engine with the outcomes. A push of an update the
// store has seen is a duplicate and never reaches the store's apply.
func (p *Peer) HandleMessage(env *simnet.Env, msg simnet.Message) {
	p.bind(env)
	m, ok := msg.Payload.(engine.Message[int])
	if !ok {
		return
	}
	switch m.Kind {
	case engine.KindPush:
		pre := engine.Applied{Res: store.Duplicate}
		if !p.st.Seen(m.Update.Ref()) {
			pre.Res, pre.Branches = p.st.ApplyObserved(m.Update)
		}
		p.eng.HandlePushApplied(msg.From, m, pre)
	case engine.KindPullResp, engine.KindSnapshot:
		pre := make([]engine.Applied, len(m.Updates))
		for i, u := range m.Updates {
			pre[i].Res, pre[i].Branches = p.st.ApplyObserved(u)
		}
		if p.eng.HandlePullRespApplied(msg.From, m, pre) {
			p.env.Metrics().Inc(MetricSnapshotCatchups)
		}
	default:
		p.eng.Handle(msg.From, m)
	}
}

// Publish creates an update for key/value at this peer and initiates its
// push phase (the paper's round 0).
func (p *Peer) Publish(env *simnet.Env, key string, value []byte) store.Update {
	p.bind(env)
	u, branches := p.w.PutObserved(key, value)
	p.eng.PublishApplied(u, branches)
	return u
}

// PublishDelete creates a tombstone update and initiates its push phase.
func (p *Peer) PublishDelete(env *simnet.Env, key string) store.Update {
	p.bind(env)
	u, branches := p.w.DeleteObserved(key)
	p.eng.PublishApplied(u, branches)
	return u
}
