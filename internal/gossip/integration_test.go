package gossip

import (
	"fmt"
	"testing"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/simnet"
)

// runUntilConverged steps the engine until every peer holds every update or
// the round budget is exhausted, returning the rounds used.
func runUntilConverged(t *testing.T, net *Network, en *simnet.Engine, ids []string, maxRounds int) int {
	t.Helper()
	for r := 0; r < maxRounds; r++ {
		en.Step()
		all := true
		for _, id := range ids {
			if net.CountAware(id) != len(net.Peers) {
				all = false
				break
			}
		}
		if all {
			return r
		}
	}
	return maxRounds
}

func TestConvergenceUnderChurn(t *testing.T) {
	// The paper's target environment: ~30% online, peers cycling, multiple
	// writers. Push reaches the online population; pull catches up everyone
	// else as they come back. All replicas must converge.
	const n = 150
	cfg := DefaultConfig(n)
	cfg.Fr = 0.08
	cfg.NewPF = func() pf.Func { return pf.Geometric{Base: 0.9} }
	cfg.PullAttempts = 3
	cfg.PullTimeout = 20
	net, err := BuildNetwork(n, cfg, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: n * 3 / 10,
		Churn:         churn.Bernoulli{Sigma: 0.95, POn: 0.05},
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	var ids []string
	for w := 0; w < 5; w++ {
		writer := w * 7 % (n * 3 / 10) // online writers
		u := net.Peers[writer].Publish(simnet.NewTestEnv(en, writer),
			fmt.Sprintf("key-%d", w), []byte{byte(w)})
		ids = append(ids, u.ID())
		en.Step()
		en.Step()
	}
	rounds := runUntilConverged(t, net, en, ids, 2000)
	if rounds >= 2000 {
		missing := 0
		for _, id := range ids {
			missing += len(net.Peers) - net.CountAware(id)
		}
		t.Fatalf("did not converge in 2000 rounds; %d (peer,update) pairs missing", missing)
	}
	if !net.Converged() {
		t.Fatal("stores differ despite full update coverage")
	}
	t.Logf("converged in %d rounds, %g messages", rounds,
		en.Metrics().Counter(simnet.MetricMessages))
}

func TestCatastrophicFailureRecovery(t *testing.T) {
	// §4.1 warns the push analysis only breaks under "catastrophic
	// failure"; we inject one (80% of online peers vanish mid-push) and
	// require the pull phase to repair the damage once peers return.
	const n = 100
	cfg := DefaultConfig(n)
	cfg.Fr = 0.1
	cfg.NewPF = nil
	cfg.PullAttempts = 3
	cfg.PullTimeout = 15
	net, err := BuildNetwork(n, cfg, 0, 22)
	if err != nil {
		t.Fatal(err)
	}
	// Strike at round 2, while the push is in flight.
	knockout, err := churn.NewSchedule(churn.Bernoulli{Sigma: 1, POn: 0.1},
		churn.Event{Round: 2, Kind: churn.Knockout, Fraction: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: n,
		Churn:         knockout,
		Seed:          22,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	u := net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "k", []byte("v"))
	rounds := runUntilConverged(t, net, en, []string{u.ID()}, 1500)
	if rounds >= 1500 {
		t.Fatalf("no recovery from catastrophe: %d/%d aware",
			net.CountAware(u.ID()), n)
	}
	t.Logf("recovered in %d rounds", rounds)
}

func TestConvergenceWithMessageLoss(t *testing.T) {
	// 20% of messages vanish. Push redundancy plus pull repair must still
	// converge every replica.
	const n = 80
	cfg := DefaultConfig(n)
	cfg.Fr = 0.1
	cfg.NewPF = nil
	cfg.PullAttempts = 3
	cfg.PullTimeout = 10
	net, err := BuildNetwork(n, cfg, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: n,
		Faults:        simnet.NewFaultPlane().SetDefault(simnet.EdgeFault{Drop: 0.2}),
		Seed:          23,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	u := net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "k", []byte("v"))
	rounds := runUntilConverged(t, net, en, []string{u.ID()}, 1000)
	if rounds >= 1000 {
		t.Fatalf("no convergence under 20%% loss: %d/%d aware",
			net.CountAware(u.ID()), n)
	}
	// The fault plane's default edge draws once per send, as the engine-wide
	// loss knob it replaced did: these are that knob's counts for this seed.
	m := en.Metrics()
	if got, dropped := m.Counter(simnet.MetricMessages), m.Counter(simnet.MetricMessagesDropped); got != 919 || dropped != 177 {
		t.Fatalf("messages %g, dropped %g; want 919 and 177", got, dropped)
	}
}

func TestConcurrentWritersConvergeDeterministically(t *testing.T) {
	// Two writers update the same key concurrently while partitioned from
	// each other (both online, but the conflict arises from simultaneity).
	// All replicas must end with identical state: both branches visible,
	// same deterministic winner.
	const n = 40
	cfg := DefaultConfig(n)
	cfg.Fr = 0.15
	cfg.NewPF = nil
	cfg.PullAttempts = 2
	cfg.PullTimeout = 10
	net, err := BuildNetwork(n, cfg, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes: net.Nodes, InitialOnline: n, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	u1 := net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "shared", []byte("from-0"))
	u2 := net.Peers[1].Publish(simnet.NewTestEnv(en, 1), "shared", []byte("from-1"))
	rounds := runUntilConverged(t, net, en, []string{u1.ID(), u2.ID()}, 800)
	if rounds >= 800 {
		t.Fatalf("concurrent writes did not spread: %d/%d and %d/%d",
			net.CountAware(u1.ID()), n, net.CountAware(u2.ID()), n)
	}
	if !net.Converged() {
		t.Fatal("replicas disagree after concurrent writes")
	}
	// Both branches must be visible somewhere.
	if got := len(net.Peers[5].Store().Versions("shared")); got != 2 {
		t.Fatalf("expected 2 coexisting branches, got %d", got)
	}
}

func TestAdaptivePFReducesDuplicates(t *testing.T) {
	// Ablation of the §6 self-tuning: with many online peers and a large
	// fanout, the adaptive schedule must cut messages versus PF=1 while
	// keeping full coverage (pull disabled to isolate the push phase).
	run := func(newPF func() pf.Func) (messages float64, aware int) {
		const n = 200
		cfg := DefaultConfig(n)
		cfg.Fr = 0.05
		cfg.NewPF = newPF
		cfg.PullAttempts = 0
		net, err := BuildNetwork(n, cfg, 0, 25)
		if err != nil {
			t.Fatal(err)
		}
		en, err := simnet.NewEngine(simnet.Config{
			Nodes: net.Nodes, InitialOnline: n, Seed: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		en.Step()
		u := net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "k", []byte("v"))
		en.Run(60)
		return en.Metrics().Counter(simnet.MetricMessages), net.CountAware(u.ID())
	}
	plainMsgs, plainAware := run(nil)
	adaptMsgs, adaptAware := run(func() pf.Func { return pf.NewAdaptive(1.0) })
	if plainAware < 195 || adaptAware < 195 {
		t.Fatalf("coverage: plain %d adaptive %d", plainAware, adaptAware)
	}
	if adaptMsgs >= plainMsgs {
		t.Fatalf("adaptive PF did not reduce messages: %g vs %g", adaptMsgs, plainMsgs)
	}
	t.Logf("plain=%g adaptive=%g (%.0f%% saved)", plainMsgs, adaptMsgs,
		100*(1-adaptMsgs/plainMsgs))
}
