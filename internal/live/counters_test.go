package live

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wire"
)

// recordingMetrics captures every counter name a replica reports.
type recordingMetrics struct {
	mu    sync.Mutex
	names map[string]float64
}

func (m *recordingMetrics) Inc(name string) { m.Add(name, 1) }

func (m *recordingMetrics) Add(name string, delta float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.names == nil {
		m.names = make(map[string]float64)
	}
	m.names[name] += delta
}

func (m *recordingMetrics) observed() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.names))
	for k, v := range m.names {
		out[k] = v
	}
	return out
}

func TestCounterNamesHaveNoDuplicates(t *testing.T) {
	seen := make(map[string]bool, len(CounterNames))
	for _, name := range CounterNames {
		if seen[name] {
			t.Errorf("CounterNames lists %q twice", name)
		}
		seen[name] = true
		if len(name) < len("live.") || name[:len("live.")] != "live." {
			t.Errorf("counter %q lacks the live. prefix", name)
		}
	}
}

// TestReplicaCountersAreRegistered drives replicas through every protocol
// path — push, forward-duplicate, ack, suspect, pull, query, and an
// out-of-order (obsolete) delivery — and asserts the set of counter names
// reported is exactly live.CounterNames. A counter added to the replica but
// not to the registry (or vice versa) fails here, so the /metrics exporter
// can never silently drift from the protocol.
func TestReplicaCountersAreRegistered(t *testing.T) {
	rec := &recordingMetrics{}
	cfg := Config{
		Fanout:       3,
		PartialList:  true,
		Acks:         true,
		AckTimeout:   time.Millisecond,
		SuspectTTL:   time.Minute,
		PullAttempts: 2,
		// Janitor knobs: tiny retention and TTL so the manual RunJanitor
		// passes below observe expiry and collection without long sleeps. The
		// background janitor stays off (JanitorInterval 0) so maintenance
		// only happens when the test drives it.
		TombstoneRetention: time.Millisecond,
		KeyTTL:             time.Millisecond,
		Metrics:            rec,
	}
	// Every hop below crosses a sender goroutine, so the waits are bounded by
	// generous deadlines, not by how fast a loaded machine schedules them.
	hub, replicas := newCluster(t, 3, cfg)

	// The coming-online pulls (two per replica) must be answered before
	// anything is published: answers are rendered when they leave, one
	// rendered after the publish would deliver k1 by pull, and an update
	// learned by pull is never acked.
	eventually(t, 10*time.Second, func() bool {
		return rec.observed()[MetricPullServed] >= 6
	}, "coming-online pulls not answered")

	// Push + forwards: with fanout 3 over three replicas plus the ghost,
	// forwarded copies bounce back as duplicates and every first copy is
	// acked. The ghost never acks, so its entry must become a suspicion.
	replicas[0].AddPeers("ghost")
	replicas[0].Publish("k1", []byte("v1"))
	eventually(t, 10*time.Second, func() bool {
		for _, r := range replicas {
			if _, ok := r.Get("k1"); !ok {
				return false
			}
		}
		return true
	}, "push did not reach every replica")
	time.Sleep(5 * time.Millisecond) // let the ghost's ack deadline lapse
	sweep(replicas[0])

	// Query: replica 1 consults two peers for the key.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := replicas[1].Query(ctx, "k1", 2); err != nil {
		t.Fatalf("query: %v", err)
	}

	// Pull: a fresh replica reconciles the published state by anti-entropy.
	tr, err := hub.Attach("late")
	if err != nil {
		t.Fatal(err)
	}
	late, err := NewReplica(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	late.AddPeers("replica-0", "replica-1", "replica-2")
	late.Start()
	t.Cleanup(late.Stop)
	eventually(t, 10*time.Second, func() bool {
		_, ok := late.Get("k1")
		return ok
	}, "pull did not reconcile the late replica")

	// Obsolete: an external origin's second revision of a key delivered
	// before its first makes the first causally dominated on arrival.
	ext, err := hub.Attach("ext")
	if err != nil {
		t.Fatal(err)
	}
	scratch := store.NewSharded(1)
	w, err := store.NewWriter("ext", scratch, time.Now, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	u1 := w.Put("k2", []byte("old"))
	u2 := w.Put("k2", []byte("new"))
	// Delivering u2 twice makes the second copy a push duplicate.
	for _, u := range []store.Update{u2, u1, u2} {
		env := wire.Envelope{Kind: wire.KindPush, From: "ext", Update: wire.FromStore(u)}
		if err := ext.Send("replica-0", env); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	eventually(t, 10*time.Second, func() bool {
		return replicas[0].HasUpdate(u1.ID())
	}, "out-of-order push not processed")

	// Janitor: a delete past retention plus TTL'd live keys give the
	// maintenance pass tombstones to collect and revisions to expire; a pull
	// request carrying replica-0's own clock records a stable frontier, so
	// compaction can drop the log entries the GC orphaned.
	replicas[0].Delete("k1")
	time.Sleep(5 * time.Millisecond) // let retention and TTL lapse
	eventually(t, 10*time.Second, func() bool {
		// Refresh the frontier: every peer re-pulls so replica-0 records
		// caught-up clocks (the eager pulls at Start recorded empty ones,
		// pinning the pointwise minimum at zero), and ext files replica-0's
		// own clock directly.
		replicas[1].PullNow()
		replicas[2].PullNow()
		late.PullNow()
		_ = ext.Send("replica-0", wire.Envelope{
			Kind: wire.KindPullReq, From: "ext", Clock: replicas[0].Store().Clock(),
		})
		replicas[0].RunJanitor()
		o := rec.observed()
		return o[MetricTombstonesGC] > 0 && o[MetricKeysExpired] > 0 &&
			o[MetricLogCompacted] > 0
	}, "janitor pass never expired, collected, and compacted")

	// Snapshot catch-up: a replica joining with an empty clock pulls from
	// the now-compacted replica-0, whose delta is gone — the response must
	// be a snapshot stream.
	str, err := hub.Attach("snap")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewReplica(cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	snap.AddPeers("replica-0")
	snap.Start()
	t.Cleanup(snap.Stop)
	eventually(t, 10*time.Second, func() bool {
		o := rec.observed()
		return o[MetricSnapshotServed] > 0 && o[MetricSnapshotCatchups] > 0
	}, "compacted replica did not serve a snapshot catch-up")

	// Backpressure counters ride the coalescing TCP sender path. Drive one
	// sender state machine directly — no goroutine, no timing — so the
	// outcome is deterministic: two versions of one key merge in the
	// pending delta (send.coalesced), and delivering the rendered batch to
	// a port nobody listens on drops it (send.failed).
	ttr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ttr.Close() })
	trep, err := NewReplica(cfg, ttr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trep.Stop)
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close() // nothing listens here any more: dials are refused
	sender := newPeerSender(trep, deadAddr)
	cw, err := store.NewWriter("coal", store.NewSharded(1), time.Now, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	v1 := cw.Put("ck", []byte("one"))
	v2 := cw.Put("ck", []byte("two")) // dominates v1: supersedes it in the pending delta
	// Deposits are engine sends: they run under the engine lock.
	trep.mu.Lock()
	for _, u := range []store.Update{v1, v2} {
		sender.deposit(engine.Message[string]{Kind: engine.KindPush, Update: u})
	}
	trep.mu.Unlock()
	sender.deliver()

	registered := make(map[string]bool, len(CounterNames))
	for _, name := range CounterNames {
		registered[name] = true
	}
	observed := rec.observed()
	for name := range observed {
		if !registered[name] {
			t.Errorf("replica reported counter %q missing from live.CounterNames", name)
		}
	}
	for _, name := range CounterNames {
		if observed[name] <= 0 {
			t.Errorf("workload never exercised counter %q (is it still reported anywhere?)", name)
		}
	}
}
