package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/pf"
)

func lastY(c Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Y
}

func lastX(c Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].X
}

func TestFig1aRumorDies(t *testing.T) {
	fig := Fig1a()
	if len(fig.Curves) != 1 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	if aware := lastX(fig.Curves[0]); aware > 0.9 {
		t.Fatalf("1%% population reached F_aware %g; paper: it must struggle", aware)
	}
}

func TestFig1bOverheadIndependentOfPopulation(t *testing.T) {
	fig := Fig1b()
	if len(fig.Curves) != 5 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	// Curves with ≥5% initial population all reach ≈ full awareness at
	// roughly the same per-peer cost (the paper reports ~80).
	var costs []float64
	for _, c := range fig.Curves[1:] { // skip the 100-peer curve
		if lastX(c) < 0.99 {
			t.Fatalf("%s stalled at %g", c.Label, lastX(c))
		}
		costs = append(costs, lastY(c))
	}
	for _, cost := range costs {
		if cost < 55 || cost > 115 {
			t.Fatalf("plain-flooding cost %g outside the ~80 band", cost)
		}
	}
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	// "Relatively independent" (paper's wording): a 20× population range
	// moves the per-peer cost by well under 2×.
	if hi/lo > 2.0 {
		t.Fatalf("overhead should be nearly population-independent: %g vs %g", lo, hi)
	}
}

func TestFig2FanoutDuplicates(t *testing.T) {
	fig := Fig2()
	if len(fig.Curves) != 4 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	// Costs grow with f_r; f_r=0.05 versus f_r=0.005 is ≈ 8–10×.
	first, last := lastY(fig.Curves[0]), lastY(fig.Curves[3])
	if ratio := last / first; ratio < 4 || ratio > 15 {
		t.Fatalf("Fig2 ratio = %g, paper ≈ 8–10", ratio)
	}
	// The paper's y-ceiling: ~350–400 msgs/peer for f_r=0.05.
	if last < 200 || last > 450 {
		t.Fatalf("f_r=0.05 cost = %g, paper plots ≈ 350", last)
	}
}

func TestFig3SigmaMonotone(t *testing.T) {
	fig := Fig3()
	prev := math.Inf(1)
	for _, c := range fig.Curves {
		cost := lastY(c)
		if cost >= prev {
			t.Fatalf("cost did not decrease with sigma: %s has %g (prev %g)",
				c.Label, cost, prev)
		}
		prev = cost
		if lastX(c) < 0.97 {
			t.Fatalf("%s awareness %g", c.Label, lastX(c))
		}
	}
}

func TestFig4DecayingPF(t *testing.T) {
	fig := Fig4()
	byLabel := map[string]Curve{}
	for _, c := range fig.Curves {
		byLabel[c.Label] = c
	}
	plain := byLabel[pf.Constant{C: 1}.String()]
	gentle := byLabel[pf.Geometric{Base: 0.9}.String()]
	harsh := byLabel[pf.Geometric{Base: 0.5}.String()]
	if lastY(gentle) >= lastY(plain) {
		t.Fatalf("0.9^t (%g) not cheaper than PF=1 (%g)", lastY(gentle), lastY(plain))
	}
	if lastX(harsh) >= lastX(gentle) {
		t.Fatalf("0.5^t should under-cover: %g vs %g", lastX(harsh), lastX(gentle))
	}
}

func TestFig5Scalability(t *testing.T) {
	fig := Fig5()
	if len(fig.Curves) != 5 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	prev := math.Inf(1)
	for _, c := range fig.Curves {
		cost := lastY(c)
		if cost > 45 {
			t.Fatalf("%s cost %g exceeds the paper's ~45 ceiling", c.Label, cost)
		}
		if cost > prev+1e-9 {
			t.Fatalf("cost per peer should decrease with population: %s", c.Label)
		}
		prev = cost
	}
}

func TestFigPull(t *testing.T) {
	fig := FigPull()
	for _, c := range fig.Curves {
		prev := 0.0
		for _, p := range c.Points {
			if p.Y < prev || p.Y > 1 {
				t.Fatalf("%s not monotone in attempts", c.Label)
			}
			prev = p.Y
		}
		if lastY(c) < 0.9 {
			t.Fatalf("%s: 40 attempts give only %g", c.Label, lastY(c))
		}
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"1a", "1b", "2", "3", "4", "5", "pull"} {
		fig, err := FigureByID(id)
		if err != nil {
			t.Fatalf("FigureByID(%q): %v", id, err)
		}
		if fig.ID != id || len(fig.Curves) == 0 {
			t.Fatalf("figure %q malformed", id)
		}
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRender(t *testing.T) {
	out := Fig1a().Render()
	if !strings.Contains(out, "Figure 1a") || !strings.Contains(out, "F_aware") {
		t.Fatalf("render output malformed:\n%s", out)
	}
}

func TestTable2MatchesPaperShape(t *testing.T) {
	blocks, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	for _, block := range blocks {
		if len(block.Rows) != 4 {
			t.Fatalf("rows = %d", len(block.Rows))
		}
		// Same ordering as the paper and within 35% of each reported value.
		for i := 1; i < len(block.Rows); i++ {
			if block.Rows[i].Ours >= block.Rows[i-1].Ours+1e-9 {
				t.Fatalf("%s: ordering violated at %s", block.Caption, block.Rows[i].Scheme)
			}
		}
		for _, row := range block.Rows {
			gap := math.Abs(row.Ours-row.Paper) / row.Paper
			if gap > 0.35 {
				t.Errorf("%s / %s: ours %g vs paper %g (%.0f%% off)",
					block.Caption, row.Scheme, row.Ours, row.Paper, gap*100)
			}
		}
	}
	if out := RenderTable2(blocks); !strings.Contains(out, "Gnutella") {
		t.Fatal("render missing schemes")
	}
}

// TestTable2SimulatedOrdering cross-validates the analytical Table 2 with
// the simulator over the shared scheme list: the message-cost ordering
// ours < Haas < partial list ≤ Gnutella must hold, with high coverage for
// the non-decaying schemes.
func TestTable2SimulatedOrdering(t *testing.T) {
	const (
		r      = 200
		fr     = 0.02 // fanout 4, as in Table 2 top (scaled population)
		trials = 5
	)
	schemes := Table2Schemes()
	msgs := make([]float64, len(schemes))
	aware := make([]float64, len(schemes))
	p := SimParams{R: r, ROn0: r, Sigma: 1, Fr: fr}
	for i, s := range schemes {
		p.NewPF, p.PartialList = s.NewPF, s.PartialList
		for seed := int64(100); seed < 100+trials; seed++ {
			p.Seed = seed
			res, err := SimulatePush(p)
			if err != nil {
				t.Fatal(err)
			}
			msgs[i] += res.MessagesPerOnlinePeer / trials
			aware[i] += res.FinalAware / trials
		}
		t.Logf("%-22s msgs/peer=%.2f aware=%.3f", s.Scheme, msgs[i], aware[i])
	}
	gnutellaMsgs, partialMsgs, haasMsgs, oursMsgs := msgs[0], msgs[1], msgs[2], msgs[3]
	gnutellaAware, partialAware, haasAware, oursAware := aware[0], aware[1], aware[2], aware[3]

	if gnutellaAware < 0.95 || partialAware < 0.95 || haasAware < 0.9 {
		t.Fatalf("baseline coverage too low")
	}
	if oursAware < 0.75 {
		t.Fatalf("our scheme coverage %g collapsed", oursAware)
	}
	if !(oursMsgs < haasMsgs && haasMsgs < gnutellaMsgs) {
		t.Fatalf("ordering violated: ours=%g haas=%g gnutella=%g",
			oursMsgs, haasMsgs, gnutellaMsgs)
	}
	if partialMsgs > gnutellaMsgs {
		t.Fatalf("partial list increased cost: %g > %g", partialMsgs, gnutellaMsgs)
	}
	// Gnutella with duplicate avoidance sends ≈ fanout per online peer
	// (§5.6 closed form): everyone who gets the rumor pushes once.
	if gnutellaMsgs < 2.5 || gnutellaMsgs > 4.5 {
		t.Fatalf("Gnutella msgs/peer = %g, closed form says ≈ 4", gnutellaMsgs)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulatePush(SimParams{R: 0}); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := SimulatePush(SimParams{R: 10, ROn0: 20}); err == nil {
		t.Fatal("ROn0 > R accepted")
	}
}

func TestSimulationMatchesAnalyticModel(t *testing.T) {
	// The core validation: the stochastic simulator and the recursion agree
	// on message cost and coverage for the paper's parameter regime
	// (scaled to R=2000 to keep the test fast).
	//
	// Single trajectories are noisy — under a decaying PF the push phase's
	// extinction time varies by several messages per peer from seed to seed
	// — so each case averages three independent seeds and the tolerance is
	// on the mean, keeping the assertion about the model rather than about
	// one seed's luck.
	cases := []struct {
		name string
		p    SimParams
		tol  float64
	}{
		{"plain sigma=0.95", SimParams{
			R: 2000, ROn0: 200, Sigma: 0.95, Fr: 0.05, Seed: 1,
		}, 0.30},
		{"partial list", SimParams{
			R: 2000, ROn0: 200, Sigma: 0.95, Fr: 0.05, PartialList: true, Seed: 2,
		}, 0.30},
		// The decaying-PF regime sits furthest from the analytic recursion
		// (the recursion keeps spending messages long after the stochastic
		// cascade has died out), so it gets the same headroom the Table 2
		// comparisons use.
		{"decaying pf", SimParams{
			R: 2000, ROn0: 200, Sigma: 0.9, Fr: 0.05, PartialList: true,
			NewPF: func() pf.Func { return pf.Geometric{Base: 0.9} }, Seed: 3,
		}, 0.35},
	}
	const seedRuns = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var anaMsgs, anaAware, simMsgs, simAware float64
			for i := 0; i < seedRuns; i++ {
				p := tc.p
				p.Seed = tc.p.Seed + int64(i*100)
				ana, sim, anaAw, simAw, err := crossCheck(p)
				if err != nil {
					t.Fatal(err)
				}
				anaMsgs, anaAware = ana, anaAw // analytic: seed-independent
				simMsgs += sim / seedRuns
				simAware += simAw / seedRuns
			}
			msgGap := math.Abs(anaMsgs-simMsgs) / anaMsgs
			if msgGap > tc.tol {
				t.Errorf("message gap %0.f%%: analytic %g vs sim mean %g",
					msgGap*100, anaMsgs, simMsgs)
			}
			if math.Abs(anaAware-simAware) > 0.15 {
				t.Errorf("awareness gap: analytic %g vs sim mean %g", anaAware, simAware)
			}
		})
	}
}

// crossCheck runs the simulator against the analytical model for the same
// parameters and returns (analytic msgs/peer, simulated msgs/peer,
// analytic F_aware, simulated F_aware).
func crossCheck(p SimParams) (analyticMsgs, simMsgs, analyticAware, simAware float64, err error) {
	sim, err := SimulatePush(p)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var fn pf.Func
	if p.NewPF != nil {
		fn = p.NewPF()
	}
	ana, err := analytic.Push(analytic.PushParams{
		R: p.R, ROn0: p.ROn0, Sigma: p.Sigma, Fr: p.Fr,
		PF: fn, PartialList: p.PartialList,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return ana.MessagesPerOnlinePeer(), sim.MessagesPerOnlinePeer,
		ana.FinalAware(), sim.FinalAware, nil
}
