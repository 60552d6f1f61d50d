package gossip

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/version"
)

// TestSoakRandomWorkload drives a full system — churn, message loss,
// interleaved puts and deletes from random online writers, a mid-run
// catastrophe — for a long horizon and then asserts global invariants:
// every replica converges to identical state, vector clocks agree, and no
// update was lost or duplicated in any store.
func TestSoakRandomWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soakOnce(t, seed)
		})
	}
}

func soakOnce(t *testing.T, seed int64) {
	const (
		n          = 120
		writeSteps = 30
		horizon    = 2500
	)
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig(n)
	cfg.Fr = 0.08
	cfg.NewPF = func() pf.Func { return pf.Geometric{Base: 0.9} }
	cfg.PullAttempts = 3
	cfg.PullTimeout = 15
	cfg.Acks = true

	net, err := BuildNetwork(n, cfg, 20, seed) // partial views: bootstrap via gossip
	if err != nil {
		t.Fatal(err)
	}
	proc, err := churn.NewSchedule(churn.Bernoulli{Sigma: 0.93, POn: 0.07},
		churn.Event{Round: 200, Kind: churn.Knockout, Fraction: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: n / 3,
		Churn:         proc,
		Faults:        simnet.NewFaultPlane().SetDefault(simnet.EdgeFault{Drop: 0.05}),
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()

	keys := []string{"a", "b", "c", "d", "e"}
	var published []string
	writesLeft := writeSteps
	for round := 1; round <= horizon; round++ {
		if writesLeft > 0 && round%13 == 0 {
			writer := rng.Intn(n)
			en.Population().SetOnline(writer, true)
			env := simnet.NewTestEnv(en, writer)
			key := keys[rng.Intn(len(keys))]
			var u string
			if rng.Intn(4) == 0 {
				u = net.Peers[writer].PublishDelete(env, key).ID()
			} else {
				u = net.Peers[writer].Publish(env, key, []byte{byte(round)}).ID()
			}
			published = append(published, u)
			writesLeft--
		}
		en.Step()
		if writesLeft == 0 && round%50 == 0 && fullyConverged(net, published) {
			break
		}
	}

	// Invariant 1: every update reached every replica.
	for _, id := range published {
		if got := net.CountAware(id); got != n {
			t.Fatalf("update %s reached %d/%d replicas", id, got, n)
		}
	}
	// Invariant 2: identical live state everywhere.
	if !net.Converged() {
		t.Fatal("stores diverged")
	}
	// Invariant 3: identical vector clocks (same update sets).
	base := net.Peers[0].Store().Clock()
	for i, p := range net.Peers[1:] {
		if base.Compare(p.Store().Clock()) != version.Equal {
			t.Fatalf("peer %d clock %s differs from %s", i+1, p.Store().Clock(), base)
		}
	}
	// Invariant 4: no store logged an update twice.
	want := len(published)
	for i, p := range net.Peers {
		if got := p.Store().UpdateCount(); got != want {
			t.Fatalf("peer %d logged %d updates, want %d", i, got, want)
		}
	}
	t.Logf("seed %d: converged %d updates across %d replicas in ≤%d rounds, %.0f messages",
		seed, want, n, en.Round(), en.Metrics().Counter(simnet.MetricMessages))
}

func fullyConverged(net *Network, ids []string) bool {
	for _, id := range ids {
		if net.CountAware(id) != len(net.Peers) {
			return false
		}
	}
	return true
}
