package pushpull

import (
	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// This file re-exports the layer types behind the Node API.

// Live runtime types.
type (
	// Transport moves protocol envelopes between replicas.
	Transport = live.Transport
	// Hub is an in-memory transport fabric for tests and examples.
	Hub = live.Hub
	// TCPTransport is the production transport.
	TCPTransport = live.TCPTransport
	// QueryOutcome is the result of Node.Query (§4.4): the freshest
	// revision among the consulted replicas.
	QueryOutcome = live.QueryOutcome
)

// Data model types.
type (
	// Update is one replicated mutation (put or tombstone delete).
	Update = store.Update
	// Revision is one coexisting version branch of an item.
	Revision = store.Revision
	// Store is a replica's local versioned store: the store.Backend
	// contract, which live nodes run on the lock-striped sharded store.
	Store = store.Backend
	// Clock is a vector clock summarising received updates.
	Clock = version.Clock
	// History is an item's version history.
	History = version.History
)

// Forwarding-probability schedules (the paper's PF(t)).
type (
	// PFFunc maps a push round to a forwarding probability.
	PFFunc = pf.Func
	// PFGeometric is PF(t) = Base^t.
	PFGeometric = pf.Geometric
	// PFAdaptive is the self-tuning schedule driven by duplicate counts and
	// partial-list length (§6).
	PFAdaptive = pf.Adaptive
)

// NewHub returns an in-memory transport fabric; attach nodes to it with
// WithHub.
func NewHub() *Hub { return live.NewHub() }

// ListenTCP starts a TCP transport on addr ("host:0" picks a free port).
// Most callers want WithTCP instead; ListenTCP remains for wiring a
// transport explicitly via WithTransport.
func ListenTCP(addr string) (*TCPTransport, error) { return live.ListenTCP(addr) }

// NewAdaptivePF returns the §6 self-tuning forwarding probability with the
// given base.
func NewAdaptivePF(base float64) *PFAdaptive { return pf.NewAdaptive(base) }
