package experiments

import (
	"fmt"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/gossip"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/trace"
)

// SimParams configures one stochastic push-phase simulation, mirroring the
// analytical PushParams so the two can be cross-validated.
type SimParams struct {
	// R, ROn0, Sigma, Fr as in the analysis.
	R     int
	ROn0  int
	Sigma float64
	Fr    float64
	// NewPF builds the forwarding schedule per peer/update; nil = PF(t)=1.
	NewPF func() pf.Func
	// PartialList toggles the flooding-list optimisation.
	PartialList bool
	// Rounds bounds the simulation; 0 means 60.
	Rounds int
	// ViewSize caps each peer's initial membership view; 0 gives complete
	// knowledge (the analytic assumption). Large populations should use a
	// sample (e.g. 500): target selection stays uniform in aggregate while
	// the views hold R·ViewSize ids instead of R². Construction still draws
	// a full shuffle per peer, R·(R−1) draws of 2–3 ns each (2-vCPU Xeon), so
	// that a seed keeps building the network it always has (gossip.BuildNetwork).
	ViewSize int
	// TraceEvents, when positive, records the last N simulation events in
	// the result's Trace recorder.
	TraceEvents int
	// Seed drives all randomness.
	Seed int64
}

// SimResult is one simulated push trajectory.
type SimResult struct {
	// Curve holds (F_aware, cumulative messages / R_on0) per round, the
	// same coordinates as the analytic figures.
	Curve Curve
	// TotalMessages is the final message count.
	TotalMessages float64
	// MessagesPerOnlinePeer normalises by the initial online population.
	MessagesPerOnlinePeer float64
	// FinalAware is the fraction of the initial online population that
	// received the update.
	FinalAware float64
	// Rounds is the number of simulation rounds executed.
	Rounds int
	// Trace holds the recorded events when SimParams.TraceEvents was set.
	Trace *trace.Recorder
}

// SimulatePush floods one update through a gossip network under the given
// parameters (push phase only) and records the paper's plot coordinates.
//
// F_aware is measured against the initial online population R_on0: peers
// that received the update and later went offline still count, matching the
// analysis (§5: peers coming online mid-push do not participate).
func SimulatePush(p SimParams) (SimResult, error) {
	if p.R <= 0 || p.ROn0 <= 0 || p.ROn0 > p.R {
		return SimResult{}, fmt.Errorf("experiments: bad population R=%d ROn0=%d", p.R, p.ROn0)
	}
	rounds := p.Rounds
	if rounds <= 0 {
		rounds = 60
	}
	cfg := gossip.DefaultConfig(p.R)
	cfg.Fr = p.Fr
	cfg.NewPF = p.NewPF
	cfg.PartialList = p.PartialList
	cfg.PullAttempts = 0
	cfg.PullTimeout = 0
	net, err := gossip.BuildNetwork(p.R, cfg, p.ViewSize, p.Seed)
	if err != nil {
		return SimResult{}, err
	}
	var rec *trace.Recorder
	if p.TraceEvents > 0 {
		rec = trace.New(p.TraceEvents)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes:         net.Nodes,
		InitialOnline: p.ROn0,
		Churn:         churn.Bernoulli{Sigma: p.Sigma},
		Seed:          p.Seed,
		Trace:         rec,
	})
	if err != nil {
		return SimResult{}, err
	}

	en.Step()
	id := net.Peers[0].Publish(simnet.NewTestEnv(en, 0), "experiment", []byte("u")).ID()

	res := SimResult{Curve: Curve{Label: "simulation"}, Trace: rec}
	rOn0 := float64(p.ROn0)
	for r := 0; r < rounds; r++ {
		en.Step()
		// F_aware is relative to the *current* online population: "our
		// notion of consistent state is more related to the online
		// population R_on(τ) … than the whole set of replicas" (§4.1).
		aware := 0.0
		if online := en.Population().OnlineCount(); online > 0 {
			aware = float64(net.CountAwareOnline(id, en)) / float64(online)
		}
		msgs := en.Metrics().Counter(simnet.MetricMessages) / rOn0
		res.Curve.Points = append(res.Curve.Points, Point{X: aware, Y: msgs})
		res.Rounds = r + 1
		if en.InFlight() == 0 {
			break
		}
	}
	res.TotalMessages = en.Metrics().Counter(simnet.MetricMessages)
	res.MessagesPerOnlinePeer = res.TotalMessages / rOn0
	if pts := res.Curve.Points; len(pts) > 0 {
		res.FinalAware = pts[len(pts)-1].X
	}
	return res, nil
}
