// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md and
// micro-benchmarks of the hot paths.
//
// Figure/table benches report the headline quantity of the corresponding
// plot via b.ReportMetric (msgs/peer, final F_aware), so `go test -bench=.`
// reproduces the paper's numbers alongside the timing.
package pushpull_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/experiments"
	"github.com/p2pgossip/update/internal/gossip"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/pgrid"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// --- Figures (analytic model, exactly the paper's parameters) ---

func BenchmarkFig1InitialOnlinePopulation(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig1b()
	}
	last := fig.Curves[len(fig.Curves)-1]
	b.ReportMetric(last.Points[len(last.Points)-1].Y, "msgs/peer")
}

func BenchmarkFig2Fanout(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig2()
	}
	last := fig.Curves[len(fig.Curves)-1] // f_r = 0.05
	b.ReportMetric(last.Points[len(last.Points)-1].Y, "msgs/peer(f_r=0.05)")
}

func BenchmarkFig3Sigma(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig3()
	}
	first := fig.Curves[0] // sigma = 1
	b.ReportMetric(first.Points[len(first.Points)-1].Y, "msgs/peer(sigma=1)")
}

func BenchmarkFig4ForwardingProbability(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig4()
	}
	for _, c := range fig.Curves {
		if c.Label == (pf.Geometric{Base: 0.9}).String() {
			b.ReportMetric(c.Points[len(c.Points)-1].Y, "msgs/peer(0.9^t)")
		}
	}
}

func BenchmarkFig5Scalability(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Fig5()
	}
	last := fig.Curves[len(fig.Curves)-1] // 10^8 replicas
	b.ReportMetric(last.Points[len(last.Points)-1].Y, "msgs/peer(R=1e8)")
}

func BenchmarkFigPull(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.FigPull()
	}
	c := fig.Curves[0]
	b.ReportMetric(c.Points[len(c.Points)-1].Y, "P(success,40attempts)")
}

// --- Table 2 (analytic + simulated) ---

func BenchmarkTable2Analytic(b *testing.B) {
	var blocks []experiments.Table2Block
	var err error
	for i := 0; i < b.N; i++ {
		blocks, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, block := range blocks {
		for _, row := range block.Rows {
			if row.Scheme == analytic.SchemeOurs.String() {
				b.ReportMetric(row.Ours, "ours-msgs/peer")
			}
		}
	}
}

func BenchmarkTable2Simulated(b *testing.B) {
	// Simulated counterpart at R = 1000 (the paper's top-block scale).
	var msgs float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.SimulatePush(experiments.SimParams{
			R: 1000, ROn0: 1000, Sigma: 1, Fr: 0.004,
			PartialList: true,
			NewPF:       func() pf.Func { return pf.Geometric{Base: 0.9} },
			Seed:        int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.MessagesPerOnlinePeer
	}
	b.ReportMetric(msgs, "ours-msgs/peer")
}

// --- Simulated push at the paper's headline scale ---

func BenchmarkSimulatedPush10k(b *testing.B) {
	var res experiments.SimResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.SimulatePush(experiments.SimParams{
			R: 10_000, ROn0: 1000, Sigma: 0.95, Fr: 0.01,
			PartialList: true, ViewSize: 500, Seed: int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MessagesPerOnlinePeer, "msgs/peer")
	b.ReportMetric(res.FinalAware, "F_aware")
}

// --- Ablations (§6 optimisations, isolated) ---

// ablationRun floods one update through 500 peers and returns total
// messages.
func ablationRun(b *testing.B, mutate func(*gossip.Config), seed int64) float64 {
	b.Helper()
	const n = 500
	cfg := gossip.DefaultConfig(n)
	cfg.Fr = 0.02
	cfg.NewPF = nil
	cfg.PullAttempts = 0
	cfg.PullTimeout = 0
	mutate(&cfg)
	net, err := gossip.BuildNetwork(n, cfg, 0, seed)
	if err != nil {
		b.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes: net.Nodes, InitialOnline: n / 2,
		Churn: churn.Bernoulli{Sigma: 0.98}, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	en.Step()
	net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "k", []byte("v"))
	en.Run(40)
	return en.Metrics().Counter(simnet.MetricMessages)
}

func BenchmarkAblationPartialList(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 1
		with = ablationRun(b, func(c *gossip.Config) { c.PartialList = true }, seed)
		without = ablationRun(b, func(c *gossip.Config) { c.PartialList = false }, seed)
	}
	b.ReportMetric(with, "msgs(with-list)")
	b.ReportMetric(without, "msgs(no-list)")
}

func BenchmarkAblationDecayingPF(b *testing.B) {
	var static, decaying float64
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 1
		static = ablationRun(b, func(c *gossip.Config) {}, seed)
		decaying = ablationRun(b, func(c *gossip.Config) {
			c.NewPF = func() pf.Func { return pf.Geometric{Base: 0.9} }
		}, seed)
	}
	b.ReportMetric(static, "msgs(PF=1)")
	b.ReportMetric(decaying, "msgs(PF=0.9^t)")
}

func BenchmarkAblationAdaptivePF(b *testing.B) {
	var adaptive float64
	for i := 0; i < b.N; i++ {
		adaptive = ablationRun(b, func(c *gossip.Config) {
			c.NewPF = func() pf.Func { return pf.NewAdaptive(1.0) }
		}, int64(i)+1)
	}
	b.ReportMetric(adaptive, "msgs(adaptive)")
}

func BenchmarkAblationAcks(b *testing.B) {
	var acked float64
	for i := 0; i < b.N; i++ {
		acked = ablationRun(b, func(c *gossip.Config) { c.Acks = true }, int64(i)+1)
	}
	b.ReportMetric(acked, "msgs(acks)")
}

func BenchmarkAblationListThreshold(b *testing.B) {
	var capped float64
	for i := 0; i < b.N; i++ {
		capped = ablationRun(b, func(c *gossip.Config) {
			c.PartialList = true
			c.ListThreshold = 0.05
		}, int64(i)+1)
	}
	b.ReportMetric(capped, "msgs(L_thr=0.05)")
}

// --- Pull phase ---

func BenchmarkPullAnalysis(b *testing.B) {
	var attempts int
	for i := 0; i < b.N; i++ {
		attempts = analytic.PullAttemptsFor(100, 1, 1000, 0.999)
	}
	b.ReportMetric(float64(attempts), "attempts(99.9%)")
}

// --- Micro-benchmarks of hot paths ---

func BenchmarkStoreApply(b *testing.B) {
	st := store.NewSharded(1)
	w, err := store.NewWriter("o", st, time.Now, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	updates := make([]store.Update, 1000)
	for i := range updates {
		updates[i] = w.Put(fmt.Sprintf("k%d", i%50), []byte("value"))
	}
	dst := store.NewSharded(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Apply(updates[i%len(updates)])
	}
}

func BenchmarkStoreMissingFor(b *testing.B) {
	st := store.NewSharded(1)
	w, err := store.NewWriter("o", st, time.Now, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	half := version.NewClock()
	half["o"] = 250
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := st.MissingFor(half); len(got) != 250 {
			b.Fatalf("missing = %d", len(got))
		}
	}
}

func BenchmarkVectorClockMerge(b *testing.B) {
	a := version.NewClock()
	c := version.NewClock()
	for i := 0; i < 32; i++ {
		a[fmt.Sprintf("p%d", i)] = uint64(i)
		c[fmt.Sprintf("p%d", i+16)] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Merge(c)
	}
}

func BenchmarkPGridRoute(b *testing.B) {
	g, err := pgrid.Build(1024, 8, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Route(i%1024, fmt.Sprintf("key-%d", i), nil, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	st := store.NewSharded(1)
	w, err := store.NewWriter("o", st, time.Now, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	u := w.Put("key", make([]byte, 256))
	env := wire.Envelope{
		Kind: wire.KindPush, From: "a:1", Update: wire.FromStore(u),
		RF: []string{"a:1", "b:2", "c:3", "d:4"}, T: 3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := wire.Encode(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyticPushRecursion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analytic.Push(analytic.PushParams{
			R: 10_000, ROn0: 1000, Sigma: 0.95, Fr: 0.01, PartialList: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
