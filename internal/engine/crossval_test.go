package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/gossip"
	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/store"
)

// These tests drive the same seeded workload through both engine adapters —
// the round-based simulator (internal/gossip over simnet) and the real-time
// runtime (internal/live over the in-memory Hub) — and require identical
// dissemination: the same delivered-update sets, the same per-node duplicate
// counts, and the same store contents. They are the proof obligation of the
// engine extraction: if either adapter deviated from the shared §4/§6 state
// machine (forgot to filter R_f, mangled the carried list, dropped the
// duplicate bookkeeping), the two runs would disagree.
//
// The workload is configured to be RNG-independent (full fanout, PF = 1, no
// churn), because the two adapters legitimately differ in randomness
// architecture: the simulator shares one engine-wide source, the live
// runtime seeds one per replica. It is also independent of delivery order —
// every node hears each update exactly once from every node that forwards it
// — because the live runtime delivers through per-peer sender goroutines: the
// live outcome is read at quiescence, not after a synchronous cascade. For the
// same reason live duplicates are counted as the replica's hooks report them:
// two copies of an update racing in on two connections may enter the engine
// duplicate first, and a duplicate of an update the engine does not track yet
// is reported but never counted by Engine.Duplicates.

// crossPopulation is the cluster size; addresses/origins are "peer-<i>" on
// both sides so store contents are directly comparable.
const crossPopulation = 8

// crossWorkload publishes one key per writer, returning the update IDs.
var crossWriters = []int{0, 3, 5}

// dissemination is the adapter-independent outcome of a workload run.
type dissemination struct {
	// delivered[updateID][node] reports whether the node saw the update.
	delivered map[string]map[int]bool
	// dupes[updateID][node] is the node's duplicate-push count.
	dupes map[string]map[int]int
	// values[node][key] is the node's winning revision value.
	values map[int]map[string]string
	// clocks[node][origin] is the node's vector-clock entry.
	clocks map[int]map[string]uint64
}

func newDissemination() *dissemination {
	return &dissemination{
		delivered: make(map[string]map[int]bool),
		dupes:     make(map[string]map[int]int),
		values:    make(map[int]map[string]string),
		clocks:    make(map[int]map[string]uint64),
	}
}

func (d *dissemination) record(node int, ids []string, has func(string) bool,
	dupes func(string) int, get func(string) (string, bool), clock map[string]uint64) {
	d.values[node] = make(map[string]string)
	d.clocks[node] = clock
	for _, id := range ids {
		if d.delivered[id] == nil {
			d.delivered[id] = make(map[int]bool)
			d.dupes[id] = make(map[int]int)
		}
		d.delivered[id][node] = has(id)
		d.dupes[id][node] = dupes(id)
	}
	for _, w := range crossWriters {
		key := fmt.Sprintf("key-%d", w)
		if v, ok := get(key); ok {
			d.values[node][key] = v
		}
	}
}

func runSimWorkload(t *testing.T, partialList bool) *dissemination {
	t.Helper()
	cfg := gossip.DefaultConfig(crossPopulation)
	cfg.Fr = float64(crossPopulation-1) / float64(crossPopulation) // full fanout
	cfg.NewPF = nil                                                // PF(t) = 1
	cfg.PartialList = partialList
	cfg.PullAttempts = 0
	cfg.PullTimeout = 0
	net, err := gossip.BuildNetwork(crossPopulation, cfg, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes: net.Nodes, InitialOnline: crossPopulation, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	var ids []string
	for _, w := range crossWriters {
		u := net.Peers[w].Publish(simnet.NewTestEnv(en, w),
			fmt.Sprintf("key-%d", w), []byte(fmt.Sprintf("value-%d", w)))
		ids = append(ids, u.ID())
		en.Run(20)
	}
	out := newDissemination()
	for i, p := range net.Peers {
		p := p
		out.record(i, ids, p.HasUpdate, p.Duplicates,
			func(key string) (string, bool) {
				rev, ok := p.Store().Get(key)
				return string(rev.Value), ok
			},
			clockMap(p.Store().Clock()))
	}
	return out
}

// runLiveWorkload runs the workload on live replicas, waits until their
// dissemination has reached want with nothing left in any sender, stops them
// — which also waits out deliveries in flight — and returns what they hold
// then. On a deadline it returns the state reached, for the caller's diff.
func runLiveWorkload(t *testing.T, partialList bool, want *dissemination) *dissemination {
	t.Helper()
	hub := live.NewHub()
	replicas := make([]*live.Replica, crossPopulation)
	addrs := make([]string, crossPopulation)
	var mu sync.Mutex
	dupes := make([]map[string]int, crossPopulation) // guarded by mu
	for i := range replicas {
		i := i
		addrs[i] = fmt.Sprintf("peer-%d", i)
		tr, err := hub.Attach(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		dupes[i] = make(map[string]int)
		r, err := live.NewReplica(live.Config{
			Fanout:       crossPopulation - 1, // full fanout
			PartialList:  partialList,
			PullAttempts: 0,
			Seed:         int64(i) + 1,
			Hooks: live.Hooks{OnApply: func(u store.Update, res store.ApplyResult, _ live.Source, _ int) {
				if res == store.Duplicate {
					mu.Lock()
					dupes[i][u.ID()]++
					mu.Unlock()
				}
			}},
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
	}
	for _, r := range replicas {
		r.AddPeers(addrs...)
	}
	var ids []string
	for _, w := range crossWriters {
		u, _ := replicas[w].Publish(fmt.Sprintf("key-%d", w),
			[]byte(fmt.Sprintf("value-%d", w)))
		ids = append(ids, u.ID())
	}
	snapshot := func() *dissemination {
		out := newDissemination()
		for i, r := range replicas {
			i, r := i, r
			out.record(i, ids, r.HasUpdate, func(id string) int {
				mu.Lock()
				defer mu.Unlock()
				return dupes[i][id]
			},
				func(key string) (string, bool) {
					rev, ok := r.Get(key)
					return string(rev.Value), ok
				},
				clockMap(r.Store().Clock()))
		}
		return out
	}
	quiescent := func() bool {
		for _, r := range replicas {
			if pending, _ := r.PendingSendBytes(); pending != 0 {
				return false
			}
		}
		return reflect.DeepEqual(snapshot(), want)
	}
	for deadline := time.Now().Add(10 * time.Second); !quiescent() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, r := range replicas {
		r.Stop()
	}
	return snapshot()
}

func clockMap(c map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// TestCrossValidationSimVsLive pins the two adapters to identical
// dissemination for the same seeded workload.
func TestCrossValidationSimVsLive(t *testing.T) {
	for _, tt := range []struct {
		name        string
		partialList bool
		// wantDupes is the analytically expected duplicate count per node
		// (writerDupes for the writer of the update, otherDupes for
		// everyone else), making the comparison a three-way check:
		// simulator = live = theory.
		writerDupes, otherDupes int
	}{
		// Without partial lists every aware node forwards to everyone, so
		// each node receives n−1 copies: the writer sees n−1 duplicates,
		// everyone else one first receipt plus n−2 duplicates.
		{"flood-no-partial-list", false, crossPopulation - 1, crossPopulation - 2},
		// With carried lists the initiator's push already names the whole
		// population, so nobody forwards and nobody sees a duplicate.
		{"flood-partial-list", true, 0, 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			sim := runSimWorkload(t, tt.partialList)
			lv := runLiveWorkload(t, tt.partialList, sim)

			if !reflect.DeepEqual(sim.delivered, lv.delivered) {
				t.Fatalf("delivered sets differ:\nsim  %v\nlive %v", sim.delivered, lv.delivered)
			}
			if !reflect.DeepEqual(sim.dupes, lv.dupes) {
				t.Fatalf("duplicate counts differ:\nsim  %v\nlive %v", sim.dupes, lv.dupes)
			}
			if !reflect.DeepEqual(sim.values, lv.values) {
				t.Fatalf("store values differ:\nsim  %v\nlive %v", sim.values, lv.values)
			}
			if !reflect.DeepEqual(sim.clocks, lv.clocks) {
				t.Fatalf("vector clocks differ:\nsim  %v\nlive %v", sim.clocks, lv.clocks)
			}

			// Both must match the closed-form expectation, not just each
			// other.
			for _, w := range crossWriters {
				id := fmt.Sprintf("peer-%d/1", w)
				for node := 0; node < crossPopulation; node++ {
					if !sim.delivered[id][node] {
						t.Fatalf("update %s not delivered to node %d", id, node)
					}
					want := tt.otherDupes
					if node == w {
						want = tt.writerDupes
					}
					if got := sim.dupes[id][node]; got != want {
						t.Fatalf("node %d dupes for %s = %d, want %d", node, id, got, want)
					}
				}
			}
		})
	}
}
