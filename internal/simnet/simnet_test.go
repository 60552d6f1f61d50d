package simnet

import (
	"testing"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/trace"
)

// echoNode counts its callbacks and forwards each received ping once to the
// next peer, building a deterministic chain.
type echoNode struct {
	id        int
	inits     int
	handled   int
	ticks     int
	cameUp    int
	forwarded bool
}

func (n *echoNode) Init(env *Env) {
	n.inits++
	if n.id != env.Self() {
		panic("env self mismatch")
	}
}

func (n *echoNode) HandleMessage(env *Env, msg Message) {
	n.handled++
	if !n.forwarded && n.id+1 < env.N() {
		env.Send(n.id+1, "ping", 10)
		n.forwarded = true
	}
}

func (n *echoNode) Tick(env *Env) {
	n.ticks++
	if n.id == 0 && env.Round() == 0 {
		env.Send(1, "ping", 10)
	}
}

func (n *echoNode) CameOnline(*Env) { n.cameUp++ }

func newChain(n int) ([]Node, []*echoNode) {
	nodes := make([]Node, n)
	raw := make([]*echoNode, n)
	for i := range nodes {
		raw[i] = &echoNode{id: i}
		nodes[i] = raw[i]
	}
	return nodes, raw
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	nodes, _ := newChain(2)
	if _, err := NewEngine(Config{Nodes: nodes, InitialOnline: 5}); err == nil {
		t.Fatal("initial online > n should error")
	}
}

func TestChainPropagation(t *testing.T) {
	nodes, raw := newChain(5)
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 5})
	if err != nil {
		t.Fatal(err)
	}
	rounds := en.Run(20)
	// Node 0 sends in round 0; node i receives in round i; last node (4)
	// receives in round 4; two idle rounds close the run.
	if rounds < 5 || rounds > 8 {
		t.Fatalf("rounds = %d", rounds)
	}
	for i := 1; i < 5; i++ {
		if raw[i].handled != 1 {
			t.Fatalf("node %d handled %d messages", i, raw[i].handled)
		}
	}
	if raw[0].inits != 1 {
		t.Fatalf("inits = %d", raw[0].inits)
	}
	if got := en.Metrics().Counter(MetricMessages); got != 4 {
		t.Fatalf("messages = %g, want 4", got)
	}
	if got := en.Metrics().Counter(MetricBytes); got != 40 {
		t.Fatalf("bytes = %g, want 40", got)
	}
}

func TestMessagesToOfflinePeersAreCountedNotDelivered(t *testing.T) {
	nodes, raw := newChain(3)
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 2}) // node 2 offline
	if err != nil {
		t.Fatal(err)
	}
	en.Run(10)
	if raw[1].handled != 1 {
		t.Fatalf("online node handled %d", raw[1].handled)
	}
	if raw[2].handled != 0 {
		t.Fatalf("offline node handled %d", raw[2].handled)
	}
	m := en.Metrics()
	if m.Counter(MetricMessages) != 2 {
		t.Fatalf("messages = %g", m.Counter(MetricMessages))
	}
	if m.Counter(MetricMessagesOffline) != 1 {
		t.Fatalf("offline messages = %g", m.Counter(MetricMessagesOffline))
	}
}

func TestMessageLossDropsEverything(t *testing.T) {
	nodes, raw := newChain(3)
	en, err := NewEngine(Config{
		Nodes: nodes, InitialOnline: 3, Faults: NewFaultPlane().SetDefault(EdgeFault{Drop: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Run(10)
	if raw[1].handled != 0 {
		t.Fatalf("handled %d despite full loss", raw[1].handled)
	}
	if got := en.Metrics().Counter(MetricMessagesDropped); got != 1 {
		t.Fatalf("dropped = %g", got)
	}
}

func TestCameOnlineCallback(t *testing.T) {
	nodes, raw := newChain(2)
	en, err := NewEngine(Config{
		Nodes:         nodes,
		InitialOnline: 0,
		Churn:         churn.Bernoulli{Sigma: 1, POn: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step() // round 0: everyone still offline (no churn before round 0)
	if raw[0].cameUp != 0 {
		t.Fatalf("cameUp before churn = %d", raw[0].cameUp)
	}
	en.Step() // round 1: churn brings everyone online
	if raw[0].cameUp != 1 || raw[1].cameUp != 1 {
		t.Fatalf("cameUp = %d/%d, want 1/1", raw[0].cameUp, raw[1].cameUp)
	}
}

func TestOfflineNodesDoNotTick(t *testing.T) {
	nodes, raw := newChain(2)
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 1})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	en.Step()
	if raw[1].ticks != 0 {
		t.Fatalf("offline node ticked %d times", raw[1].ticks)
	}
	if raw[0].ticks != 2 {
		t.Fatalf("online node ticked %d times", raw[0].ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() float64 {
		nodes, _ := newChain(50)
		en, err := NewEngine(Config{
			Nodes:         nodes,
			InitialOnline: 25,
			Churn:         churn.Bernoulli{Sigma: 0.9, POn: 0.1},
			Seed:          42,
		})
		if err != nil {
			t.Fatal(err)
		}
		en.Run(30)
		return en.Metrics().Counter(MetricMessages) +
			float64(en.Population().OnlineCount())*1000
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %g vs %g", a, b)
	}
}

func TestSharedMetricsRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Inc("preexisting")
	nodes, _ := newChain(2)
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	en.Run(5)
	if reg.Counter("preexisting") != 1 {
		t.Fatal("registry was replaced")
	}
	if reg.Counter(MetricMessages) == 0 {
		t.Fatal("engine did not write to shared registry")
	}
}

func TestRunStopsAtMaxRounds(t *testing.T) {
	// A node that sends to itself forever never goes idle.
	nodes := []Node{&selfSpammer{}}
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := en.Run(7); got != 7 {
		t.Fatalf("rounds = %d, want 7", got)
	}
}

type selfSpammer struct{}

func (s *selfSpammer) Init(*Env)                   {}
func (s *selfSpammer) HandleMessage(*Env, Message) {}
func (s *selfSpammer) Tick(env *Env)               { env.Send(env.Self(), "x", 1) }
func (s *selfSpammer) CameOnline(*Env)             {}

func TestEngineTracing(t *testing.T) {
	rec := trace.New(0)
	nodes, _ := newChain(3)
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 2, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	en.Run(10)
	// Chain: node 0 sends to 1 (delivered), node 1 sends to 2 (offline).
	if got := rec.CountKind(trace.KindSend); got != 2 {
		t.Fatalf("send events = %d, want 2", got)
	}
	if got := rec.CountKind(trace.KindDeliver); got != 1 {
		t.Fatalf("deliver events = %d, want 1", got)
	}
	if got := rec.CountKind(trace.KindOffline); got != 1 {
		t.Fatalf("offline events = %d, want 1", got)
	}
}

func TestEngineTracingChurnAndDrops(t *testing.T) {
	rec := trace.New(0)
	nodes, _ := newChain(2)
	en, err := NewEngine(Config{
		Nodes: nodes, InitialOnline: 0,
		Churn: churn.Bernoulli{Sigma: 1, POn: 1},
		Trace: rec, Faults: NewFaultPlane().SetDefault(EdgeFault{Drop: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	en.Step() // everyone comes online
	en.Step() // node 0 tick fired at round... node 0 sends at round 0 only when online
	if got := rec.CountKind(trace.KindWentOnline); got != 2 {
		t.Fatalf("online events = %d, want 2", got)
	}
}

func TestEnvAccessorsAndEngineIntrospection(t *testing.T) {
	nodes, _ := newChain(4)
	en, err := NewEngine(Config{Nodes: nodes, InitialOnline: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	env := NewTestEnv(en, 2)
	if env.Self() != 2 {
		t.Fatalf("Self = %d", env.Self())
	}
	if env.N() != 4 {
		t.Fatalf("N = %d", env.N())
	}
	if env.RNG() == nil || env.Metrics() == nil {
		t.Fatal("RNG/Metrics nil")
	}
	if !env.Online(0) || env.Online(3) {
		t.Fatal("Online wrong")
	}
	if env.OnlineCount() != 3 {
		t.Fatalf("OnlineCount = %d", env.OnlineCount())
	}
	if env.Round() != 0 || en.Round() != 0 {
		t.Fatal("round not zero before steps")
	}
	en.Step()
	en.Step()
	if en.Round() != 1 {
		t.Fatalf("Round = %d after two steps", en.Round())
	}
	if en.Node(1) != nodes[1] {
		t.Fatal("Node accessor wrong")
	}
}
