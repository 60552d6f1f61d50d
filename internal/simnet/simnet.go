// Package simnet is a round-based discrete simulator for epidemic protocols
// under churn.
//
// The paper analyses the push phase in a synchronous model, "a standard
// model for analysing epidemic algorithms" (§3), and notes that the discrete
// time model is a round abstraction rather than a wall clock (§4.1). The
// engine mirrors that model:
//
//   - Each round, the churn process updates every peer's availability.
//   - Messages sent in round t are delivered at the beginning of round t+1
//     to recipients that are online then; sends to offline peers are counted
//     (the paper's message metric includes them, Table 1: "including
//     messages to offline replicas") but not delivered.
//   - Online nodes then take a Tick step (initiate pushes, pulls, …).
//
// Protocol behaviours plug in through the Node interface; the gossip core
// and all flooding baselines run on the same engine so that their message
// counts are directly comparable.
package simnet

import (
	"fmt"
	"math/rand"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/trace"
)

// Metric names used by the engine. Protocols add their own on top.
const (
	// MetricMessages counts every send, delivered or not.
	MetricMessages = "messages"
	// MetricMessagesOffline counts sends whose recipient was offline at
	// delivery time.
	MetricMessagesOffline = "messages_offline"
	// MetricMessagesDropped counts sends lost to injected message loss.
	MetricMessagesDropped = "messages_dropped"
	// MetricBytes accumulates the byte size of every send.
	MetricBytes = "bytes"
)

// Message is an in-flight simulation message.
type Message struct {
	// From and To are peer indices.
	From, To int
	// SentAt is the round in which the message was sent.
	SentAt int
	// DeliverAt is the round the message arrives: SentAt+1 on a clean link,
	// later when the fault plane injects delay.
	DeliverAt int
	// Payload is the protocol-defined content.
	Payload any
	// Bytes is the accounted wire size.
	Bytes int

	// reorder marks messages whose delivery position is randomised within
	// their arrival round (FaultPlane edge reordering).
	reorder bool
}

// Node is a protocol behaviour attached to one peer.
type Node interface {
	// Init is called once before the first round.
	Init(env *Env)
	// HandleMessage delivers one message; called only while online.
	HandleMessage(env *Env, msg Message)
	// Tick runs once per round while online, after message delivery.
	Tick(env *Env)
	// CameOnline is called when the peer transitions offline→online, before
	// message delivery in that round (this is where the pull phase starts).
	CameOnline(env *Env)
}

// Restartable is implemented by nodes that support crash/restart fault
// injection (FaultPlane.AddCrash). Crash is called when the process dies: the
// node must drop its volatile state, keeping only what its durable storage
// would preserve. Restart is called when the process returns, before the
// CameOnline callback of the same round. Crash events on nodes that do not
// implement Restartable degrade to a forced offline period (a network cut,
// not a process death).
type Restartable interface {
	Node
	// Crash drops the node's volatile state.
	Crash(env *Env)
	// Restart recovers the node from its durable state.
	Restart(env *Env)
}

// Env is the API surface protocols use to interact with the engine. An Env
// is only valid for the duration of the callback it is passed to.
type Env struct {
	engine *Engine
	self   int
}

// Self returns the peer index the callback runs on (−1 for engine-level
// contexts).
func (e *Env) Self() int { return e.self }

// Round returns the current round number.
func (e *Env) Round() int { return e.engine.round }

// N returns the population size.
func (e *Env) N() int { return len(e.engine.nodes) }

// RNG returns the engine's deterministic random source.
func (e *Env) RNG() *rand.Rand { return e.engine.rng }

// Online reports whether the given peer is currently online.
func (e *Env) Online(id int) bool { return e.engine.pop.Online(id) }

// OnlineCount returns the number of online peers.
func (e *Env) OnlineCount() int { return e.engine.pop.OnlineCount() }

// Metrics returns the engine's metric registry.
func (e *Env) Metrics() *metrics.Registry { return e.engine.reg }

// Send queues a message from the calling peer for delivery next round.
func (e *Env) Send(to int, payload any, bytes int) {
	e.engine.send(e.self, to, payload, bytes)
}

// Engine drives a population of nodes through synchronous rounds.
type Engine struct {
	nodes   []Node
	pop     *churn.Population
	rng     *rand.Rand
	reg     *metrics.Registry
	tracer  *trace.Recorder // nil Recorder records nothing
	round   int
	pending []Message // messages awaiting delivery at their DeliverAt round
	due     []Message // reusable per-round delivery buffer
	outbox  []Message // messages produced this round
	faults  *FaultPlane
	crashed []bool        // peers currently down from a FaultPlane crash
	proc    churn.Process // the availability process, for event scheduling
	started bool
}

// Config parameterises an Engine.
type Config struct {
	// Nodes are the protocol behaviours, one per peer.
	Nodes []Node
	// InitialOnline is the number of peers online at round 0 (peers
	// 0..InitialOnline−1).
	InitialOnline int
	// Churn is the availability process. Nil means churn.Static.
	Churn churn.Process
	// Seed seeds the engine's random source.
	Seed int64
	// Faults, if non-nil, injects per-edge loss, delay, reordering,
	// scheduled partitions, and crash/restart events. A plane belongs to
	// exactly one engine.
	Faults *FaultPlane
	// Metrics receives the engine counters. Nil allocates a fresh registry.
	Metrics *metrics.Registry
	// Trace, if non-nil, records per-event telemetry (sends, deliveries,
	// drops, availability transitions).
	Trace *trace.Recorder
}

// NewEngine constructs an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("simnet: no nodes")
	}
	proc := cfg.Churn
	if proc == nil {
		proc = churn.Static{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.seal(len(cfg.Nodes)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop, err := churn.NewPopulation(len(cfg.Nodes), cfg.InitialOnline, proc, rng)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	return &Engine{
		nodes:   cfg.Nodes,
		pop:     pop,
		rng:     rng,
		reg:     reg,
		tracer:  cfg.Trace,
		faults:  cfg.Faults,
		crashed: make([]bool, len(cfg.Nodes)),
		proc:    proc,
	}, nil
}

// Round returns the current round number.
func (en *Engine) Round() int { return en.round }

// Metrics returns the engine's registry.
func (en *Engine) Metrics() *metrics.Registry { return en.reg }

// Population exposes the availability state (read-mostly; tests also force
// states through it).
func (en *Engine) Population() *churn.Population { return en.pop }

// Node returns the behaviour attached to peer id.
func (en *Engine) Node(id int) Node { return en.nodes[id] }

// InFlight returns the number of messages queued for future delivery.
func (en *Engine) InFlight() int { return len(en.pending) + len(en.outbox) }

// Crashed reports whether peer id is currently down from a FaultPlane crash.
func (en *Engine) Crashed(id int) bool { return en.crashed[id] }

func (en *Engine) send(from, to int, payload any, bytes int) {
	en.reg.Inc(MetricMessages)
	en.reg.Add(MetricBytes, float64(bytes))
	en.tracer.Record(trace.Event{
		Round: en.round, Kind: trace.KindSend, From: from, To: to,
		Note: fmt.Sprintf("%T %dB", payload, bytes),
	})
	delay, reorder := 0, false
	if en.faults != nil {
		if en.faults.severed(from, to, en.round) {
			en.reg.Inc(MetricMessagesDropped)
			en.tracer.Record(trace.Event{
				Round: en.round, Kind: trace.KindDrop, From: from, To: to,
				Note: "partition",
			})
			return
		}
		if f, ok := en.faults.edgeFault(from, to); ok {
			if f.Drop > 0 && en.rng.Float64() < f.Drop {
				en.reg.Inc(MetricMessagesDropped)
				en.tracer.Record(trace.Event{
					Round: en.round, Kind: trace.KindDrop, From: from, To: to,
					Note: "edge",
				})
				return
			}
			delay = f.Delay
			if f.Jitter > 0 {
				delay += en.rng.Intn(f.Jitter + 1)
			}
			reorder = f.Reorder
		}
	}
	en.outbox = append(en.outbox, Message{
		From: from, To: to, SentAt: en.round, DeliverAt: en.round + 1 + delay,
		Payload: payload, Bytes: bytes, reorder: reorder,
	})
}

func (en *Engine) env(self int) *Env { return &Env{engine: en, self: self} }

// Step executes one round and returns the number of messages delivered.
//
// Ordering within a round: churn (except before round 0) → fault-plane
// crash/restart events → CameOnline callbacks → message delivery → Tick for
// every online node. Messages sent during the round are delivered next round,
// or later when the fault plane injects delay.
func (en *Engine) Step() int {
	var came []int
	if !en.started {
		en.started = true
		for i, n := range en.nodes {
			n.Init(en.env(i))
		}
	} else {
		en.round++
		came = en.pop.Step(en.round)
	}
	came = en.applyFaultEvents(came)
	for _, id := range came {
		en.tracer.Record(trace.Event{
			Round: en.round, Kind: trace.KindWentOnline, From: id, To: -1,
		})
		en.nodes[id].CameOnline(en.env(id))
	}

	// Deliver the messages due this round, preserving send order except
	// where the fault plane reorders.
	due := en.due[:0]
	rest := en.pending[:0]
	for _, msg := range en.pending {
		if msg.DeliverAt <= en.round {
			due = append(due, msg)
		} else {
			rest = append(rest, msg)
		}
	}
	en.pending = rest
	en.reorderDue(due)
	delivered := 0
	for _, msg := range due {
		if !en.pop.Online(msg.To) {
			en.reg.Inc(MetricMessagesOffline)
			en.tracer.Record(trace.Event{
				Round: en.round, Kind: trace.KindOffline, From: msg.From, To: msg.To,
			})
			continue
		}
		en.tracer.Record(trace.Event{
			Round: en.round, Kind: trace.KindDeliver, From: msg.From, To: msg.To,
		})
		en.nodes[msg.To].HandleMessage(en.env(msg.To), msg)
		delivered++
	}
	en.due = due[:0]

	// Tick online nodes.
	for i, n := range en.nodes {
		if en.pop.Online(i) {
			n.Tick(en.env(i))
		}
	}

	// Queue this round's sends for future delivery.
	en.pending = append(en.pending, en.outbox...)
	en.outbox = en.outbox[:0]
	return delivered
}

// applyFaultEvents processes the fault plane's crash/restart schedule for the
// current round and enforces that crashed peers stay offline no matter what
// the churn process decided. It returns the came-online list with crashed
// peers removed and restarted peers added.
func (en *Engine) applyFaultEvents(came []int) []int {
	if en.faults == nil {
		return came
	}
	// Restarts first: a peer whose restart and (next) crash share a round
	// goes down, not up.
	for _, ev := range en.faults.crashes {
		if ev.RestartAt == en.round && en.crashed[ev.Peer] {
			en.crashed[ev.Peer] = false
			if rn, ok := en.nodes[ev.Peer].(Restartable); ok {
				rn.Restart(en.env(ev.Peer))
			}
			// The came-online loop records the KindWentOnline event; the
			// crash's KindWentOffline("crash") already marks the window.
			if !en.pop.Online(ev.Peer) {
				en.pop.SetOnline(ev.Peer, true)
				came = append(came, ev.Peer)
			}
		}
	}
	for _, ev := range en.faults.crashes {
		if ev.At == en.round && !en.crashed[ev.Peer] {
			en.crashed[ev.Peer] = true
			if rn, ok := en.nodes[ev.Peer].(Restartable); ok {
				rn.Crash(en.env(ev.Peer))
			}
			en.tracer.Record(trace.Event{
				Round: en.round, Kind: trace.KindWentOffline, From: ev.Peer, To: -1,
				Note: "crash",
			})
		}
	}
	// Crash wins over churn revival until the scheduled restart.
	kept := came[:0]
	for _, id := range came {
		if en.crashed[id] {
			continue
		}
		kept = append(kept, id)
	}
	for peer, down := range en.crashed {
		if down && en.pop.Online(peer) {
			en.pop.SetOnline(peer, false)
		}
	}
	return kept
}

// reorderDue shuffles the delivery positions of reorder-marked messages among
// themselves; unmarked messages keep their send order.
func (en *Engine) reorderDue(due []Message) {
	if en.faults == nil {
		return
	}
	marked := make([]int, 0, 8)
	for i, msg := range due {
		if msg.reorder {
			marked = append(marked, i)
		}
	}
	if len(marked) < 2 {
		return
	}
	en.rng.Shuffle(len(marked), func(a, b int) {
		due[marked[a]], due[marked[b]] = due[marked[b]], due[marked[a]]
	})
}

// Run executes up to maxRounds rounds, stopping early when the network goes
// idle (no messages in flight for two consecutive rounds) with no fault-plane
// or churn-schedule events still scheduled. It returns the number of rounds
// executed.
func (en *Engine) Run(maxRounds int) int {
	idle := 0
	executed := 0
	for executed < maxRounds {
		delivered := en.Step()
		executed++
		if delivered == 0 && en.InFlight() == 0 && !en.pendingFaultEvents() {
			idle++
			if idle >= 2 {
				break
			}
		} else {
			idle = 0
		}
	}
	return executed
}

// pendingFaultEvents reports whether the fault plane or the availability
// process still has scheduled interventions after the current round.
func (en *Engine) pendingFaultEvents() bool {
	if en.faults != nil && en.faults.LastEventRound() > en.round {
		return true
	}
	if es, ok := en.proc.(churn.EventSource); ok && es.LastEventRound() > en.round {
		return true
	}
	return false
}

// NewTestEnv returns an Env bound to the engine for out-of-band calls, such
// as injecting an update at a peer from a test or an experiment harness.
// Messages sent through it follow normal next-round delivery.
func NewTestEnv(en *Engine, self int) *Env { return en.env(self) }
