package gossip

import (
	"math"
	"testing"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/simnet"
)

// buildEngine wires a network and engine with the given parameters.
func buildEngine(t *testing.T, n int, cfg Config, initialOnline int, proc churn.Process, seed int64) (*Network, *simnet.Engine) {
	t.Helper()
	net, err := BuildNetwork(n, cfg, 0, seed)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: initialOnline,
		Churn:         proc,
		Seed:          seed,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return net, en
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero R", func(c *Config) { c.R = 0 }},
		{"bad fr", func(c *Config) { c.Fr = 1.5 }},
		{"bad threshold", func(c *Config) { c.ListThreshold = -0.1 }},
		{"bad attempts", func(c *Config) { c.PullAttempts = -1 }},
		{"bad timeout", func(c *Config) { c.PullTimeout = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(100)
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("want error")
			}
		})
	}
	if err := DefaultConfig(100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestNewPeerRejectsBadConfig(t *testing.T) {
	if _, err := NewPeer(0, Config{}); err == nil {
		t.Fatal("want error for zero config")
	}
}

func TestBuildNetworkValidation(t *testing.T) {
	if _, err := BuildNetwork(0, DefaultConfig(10), 0, 1); err == nil {
		t.Fatal("want error for empty network")
	}
	if _, err := BuildNetwork(5, Config{}, 0, 1); err == nil {
		t.Fatal("want error for invalid config")
	}
}

func TestBuildNetworkViews(t *testing.T) {
	// Full views.
	net, err := BuildNetwork(10, DefaultConfig(10), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Peers {
		if p.KnownCount() != 9 {
			t.Fatalf("peer %d full view size = %d", i, p.KnownCount())
		}
		if p.Knows(i) {
			t.Fatalf("peer %d knows itself", i)
		}
	}
	// Partial views.
	net, err = BuildNetwork(10, DefaultConfig(10), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Peers {
		if p.KnownCount() != 3 {
			t.Fatalf("peer %d partial view size = %d", i, p.KnownCount())
		}
	}
}

func TestPushReachesAllOnlinePeers(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Fr = 0.1 // fanout 10: coverage is certain up to ~1e-4 miss odds
	cfg.NewPF = nil
	cfg.PullAttempts = 0 // push only
	net, en := buildEngine(t, 100, cfg, 100, churn.Static{}, 7)

	var id string
	en.Step() // init
	id = net.Peers[0].Publish(envOf(t, en, 0), "key", []byte("v1")).ID()
	en.Run(30)

	if got := net.CountAware(id); got != 100 {
		t.Fatalf("aware = %d/100 after push-only flood", got)
	}
}

// envOf builds a temporary Env for direct peer calls in tests.
func envOf(t *testing.T, en *simnet.Engine, self int) *simnet.Env {
	t.Helper()
	return simnet.NewTestEnv(en, self)
}

func TestPushRespectsOfflinePeers(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Fr = 0.2 // fanout 20 so that all 50 online peers are hit w.h.p.
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	net, en := buildEngine(t, 100, cfg, 50, churn.Static{}, 8)
	en.Step()
	id := net.Peers[0].Publish(envOf(t, en, 0), "key", []byte("v1")).ID()
	en.Run(30)
	// All 50 online peers aware; the 50 offline ones untouched.
	if got := net.CountAwareOnline(id, en); got != 50 {
		t.Fatalf("online aware = %d/50", got)
	}
	if got := net.CountAware(id); got != 50 {
		t.Fatalf("total aware = %d, offline peers should have nothing", got)
	}
}

func TestPullOnComingOnline(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.Fr = 0.4 // large fanout: the whole online population hears the push
	cfg.NewPF = nil
	cfg.PullAttempts = 5
	net, en := buildEngine(t, 20, cfg, 10, churn.Static{}, 9)
	en.Step()
	id := net.Peers[0].Publish(envOf(t, en, 0), "key", []byte("v1")).ID()
	en.Run(10)
	if got := net.CountAwareOnline(id, en); got < 9 {
		t.Fatalf("online aware = %d/10 after push", got)
	}
	// Bring an offline peer online: CameOnline must trigger an eager pull
	// that fetches the update within a few rounds.
	en.Population().SetOnline(15, true)
	net.Peers[15].CameOnline(envOf(t, en, 15))
	en.Run(6)
	if !net.Peers[15].HasUpdate(id) {
		t.Fatal("woken peer did not pull the update")
	}
	if en.Metrics().Counter(MetricPullRequests) == 0 {
		t.Fatal("no pull requests recorded")
	}
}

func TestLazyPullWaitsThenSyncsOnDemand(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.Fr = 0.2
	cfg.NewPF = nil
	cfg.LazyPull = true
	net, en := buildEngine(t, 20, cfg, 10, churn.Static{}, 10)
	en.Step()
	id := net.Peers[0].Publish(envOf(t, en, 0), "key", []byte("v1")).ID()
	en.Run(10)

	before := en.Metrics().Counter(MetricPullRequests)
	en.Population().SetOnline(15, true)
	net.Peers[15].CameOnline(envOf(t, en, 15))
	en.Run(3)
	if got := en.Metrics().Counter(MetricPullRequests); got != before {
		t.Fatalf("lazy peer pulled eagerly: %g → %g", before, got)
	}
	if net.Peers[15].HasUpdate(id) {
		t.Fatal("lazy peer has update without any contact")
	}
	// A pull request arriving at the lazy (not confident) peer forces it to
	// sync itself (§3: received_pull and not_confident).
	net.Peers[16].CameOnline(envOf(t, en, 16)) // also lazy: no traffic
	req := engine.Message[int]{Kind: engine.KindPullReq, Clock: net.Peers[16].Store().Clock()}
	net.Peers[15].HandleMessage(envOf(t, en, 15),
		simnet.Message{From: 16, To: 15, Payload: req})
	en.Run(6)
	if !net.Peers[15].HasUpdate(id) {
		t.Fatal("not-confident peer did not sync after receiving a pull")
	}
}

func TestPullTimeoutTriggersResync(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.NewPF = nil
	cfg.PullTimeout = 5
	cfg.PullAttempts = 2
	_, en := buildEngine(t, 10, cfg, 10, churn.Static{}, 11)
	for i := 0; i < 15; i++ {
		en.Step() // Run would stop on idle before the timeout fires
	}
	if got := en.Metrics().Counter(MetricPullRequests); got == 0 {
		t.Fatal("idle peers never pulled despite timeout")
	}
}

func TestDuplicateCountingAndListMerge(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Fr = 0.3 // fanout 3: peer 5 pushes on, so it keeps the flooding state
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	net, en := buildEngine(t, 10, cfg, 10, churn.Static{}, 12)
	en.Step()
	u := net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))
	id := u.ID()

	// Deliver the same push twice to peer 5 from different senders with
	// different lists.
	env5 := envOf(t, en, 5)
	net.Peers[5].HandleMessage(env5, simnet.Message{
		From: 1, To: 5, Payload: engine.Message[int]{Kind: engine.KindPush, Update: u, RF: []int{1, 2}, T: 1},
	})
	net.Peers[5].HandleMessage(env5, simnet.Message{
		From: 2, To: 5, Payload: engine.Message[int]{Kind: engine.KindPush, Update: u, RF: []int{3, 4}, T: 1},
	})
	if got := net.Peers[5].Duplicates(id); got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	rf := net.Peers[5].eng.FloodingList(id)
	listed := make(map[int]bool, len(rf))
	for _, id := range rf {
		listed[id] = true
	}
	for _, want := range []int{1, 2, 3, 4, 5} {
		if !listed[want] {
			t.Fatalf("merged RF missing %d: %v", want, rf)
		}
	}
}

func TestNameDropperGrowsViews(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.Fr = 0.1
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	// Small initial views; the partial lists must teach peers new replicas.
	net, err := BuildNetwork(50, cfg, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes: net.Nodes, InitialOnline: 50, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "k", []byte("v"))
	en.Run(30)
	if en.Metrics().Counter(MetricReplicasLearned) == 0 {
		t.Fatal("no replicas learned from partial lists")
	}
	grew := 0
	for _, p := range net.Peers {
		if p.KnownCount() > 5 {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no view grew beyond its initial size")
	}
}

func TestPartialListDisabledSendsNoList(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Fr = 0.3 // fanout 3 (the default f_r rounds to zero at R=10)
	cfg.PartialList = false
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	net, en := buildEngine(t, 10, cfg, 10, churn.Static{}, 14)
	en.Step()
	u := net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))
	// Three steps: the publish lands in the outbox, rotates to the inbox,
	// and is delivered at the start of the following round.
	en.Step()
	en.Step()
	en.Step()
	// Peers that received it forward without lists; verify via state of a
	// receiving peer: its rf only contains itself.
	aware := 0
	for i, p := range net.Peers {
		if i != 0 && p.HasUpdate(u.ID()) {
			aware++
		}
	}
	if aware == 0 {
		t.Fatal("no peer received the push")
	}
	// The wire carried no list, so nothing can have been learned from it.
	if got := en.Metrics().Counter(MetricReplicasLearned); got != 0 {
		t.Fatalf("replicas learned = %g despite disabled partial list", got)
	}
}

func TestListThresholdTruncatesWire(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Fr = 0.2
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	cfg.ListThreshold = 0.05 // ≤5 entries on the wire
	net, en := buildEngine(t, 100, cfg, 100, churn.Static{}, 15)
	en.Step()
	net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))
	en.Run(20)
	// All accumulated rf lists came from wire messages capped at 5 entries
	// plus self and merge effects; the carried lists themselves were ≤5.
	// We verify indirectly: no received state has more entries than
	// duplicates could explain — simpler: re-run the wire rendering on a
	// large accumulated list.
	p := net.Peers[0]
	p.bind(envOf(t, en, 0))
	big := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	carried := p.eng.Carried(big)
	if len(carried) > 5 {
		t.Fatalf("carried list = %d entries, threshold 5", len(carried))
	}
	if len(big) != 10 {
		t.Fatal("truncation mutated the local list")
	}
}

func TestAckFirstPolicy(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Fr = 0.3
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	cfg.Acks = true
	cfg.SuspectTTL = 5
	net, en := buildEngine(t, 10, cfg, 5, churn.Static{}, 16)
	en.Step()
	net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))
	en.Run(10)
	if en.Metrics().Counter(MetricAcks) == 0 {
		t.Fatal("no acks sent with acks on")
	}
	// Pushes to offline peers never ack: they must be suspected.
	suspected := 0
	for _, p := range net.Peers {
		suspected += len(p.eng.Suspects())
	}
	_ = suspected // suspects may have expired; the ack counter is the core assertion
}

// TestSimPathFeedsListFractionIntoAdaptivePF is the simulator-side
// regression test for the §6 feed-forward signal: the carried-list fraction
// must reach the adaptive PF schedule on the sim path exactly as on the
// live path. Before the engine extraction the two copies of the state
// machine could — and did — drift on this.
func TestSimPathFeedsListFractionIntoAdaptivePF(t *testing.T) {
	var captured []*pf.Adaptive
	cfg := DefaultConfig(10)
	cfg.Fr = 0 // no forwarding fanout: R_f stays exactly list ∪ {self}
	cfg.PullAttempts = 0
	cfg.NewPF = func() pf.Func {
		a := pf.NewAdaptive(1.0)
		captured = append(captured, a)
		return a
	}
	net, en := buildEngine(t, 10, cfg, 10, churn.Static{}, 40)
	en.Step()
	u := net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))

	// Deliver a push carrying a 4-entry list to peer 5: R_f = {1,2,3,4,5},
	// L = 5/10, so the adaptive schedule must report PF = 1·(1−0.5) = 0.5.
	net.Peers[5].HandleMessage(envOf(t, en, 5), simnet.Message{
		From: 1, To: 5, Payload: engine.Message[int]{Kind: engine.KindPush, Update: u, RF: []int{1, 2, 3, 4}, T: 1},
	})
	ad := captured[len(captured)-1]
	if got := ad.P(2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("sim-path adaptive PF = %g, want 0.5 from list-fraction feedback", got)
	}
}

func TestPublishDeletePropagatesTombstone(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.Fr = 0.25
	cfg.NewPF = nil
	net, en := buildEngine(t, 20, cfg, 20, churn.Static{}, 17)
	en.Step()
	net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))
	en.Run(15)
	net.Peers[0].PublishDelete(envOf(t, en, 0), "k")
	en.Run(15)
	for i, p := range net.Peers {
		if _, ok := p.Store().Get("k"); ok {
			t.Fatalf("peer %d still sees deleted key", i)
		}
	}
}

func TestConvergedHelper(t *testing.T) {
	net, err := BuildNetwork(3, DefaultConfig(3), 0, 18)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Converged() {
		t.Fatal("empty stores should be converged")
	}
	empty := &Network{}
	if !empty.Converged() {
		t.Fatal("empty network should be converged")
	}
}
