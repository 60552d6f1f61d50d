// Command figures regenerates the paper's evaluation artefacts: Figures
// 1(a), 1(b), 2, 3, 4, 5, the pull-phase analysis, Table 2, and the §4.2
// push-phase recursion for one scenario set by flags.
//
// Usage:
//
//	figures -fig all            # every figure as text tables
//	figures -fig 2              # one figure
//	figures -fig 2 -csv         # CSV output
//	figures -table              # Table 2, paper vs ours
//	figures -table -sim         # add the top block simulated, over the four
//	                            # schemes of experiments.Table2Schemes
//	figures -push -r 10000 -online 1000 -sigma 0.95 -fr 0.01
//	figures -push -r 10000 -online 1000 -pf 'geom:0.9' -partial-list
//	figures -push -r 100000000 -online 10000000 -sigma 1 -pf 'affine:0.8,0.7,0.2' \
//	        -fr 0.00001
//	figures -push -sim -r 2000 -online 200 -sigma 0.95 -fr 0.05 -partial-list
//	figures -push -sim -r 1000 -online 1000 -sigma 1 -fr 0.004 -pf geom:0.9 -seed 7
//
// -push prints the analytic model's round-by-round trajectory, the Go
// counterpart of the C program the authors used for §5; with -sim it then
// runs the same scenario once on the discrete simulator and prints that
// trajectory next to the model's totals. PF schedules: 'const:C',
// 'lin:START,SLOPE', 'geom:BASE', 'affine:A,B,C', 'ttl:ROUNDS', 'haas:P,K',
// 'adaptive:BASE'.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/experiments"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/pfparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure id: 1a, 1b, 2, 3, 4, 5, pull, or all")
	table := fs.Bool("table", false, "print Table 2 (paper vs ours)")
	study := fs.String("study", "", "extra study: bimodal, backbone, or lthr")
	push := fs.Bool("push", false, "print the analytic push phase of the scenario set by -r, -online, -sigma, -fr, -pf, -partial-list, -lthr and -update-bytes")
	sim := fs.Bool("sim", false, "add simulated cross-checks (with -table, -fig or -push)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := fs.Int64("seed", 1, "simulation seed")

	// The -push scenario.
	r := fs.Int("r", 10_000, "total number of replicas R")
	online := fs.Int("online", 1000, "initially online replicas R_on[0]")
	sigma := fs.Float64("sigma", 0.95, "probability of staying online per round")
	fr := fs.Float64("fr", 0.01, "fanout fraction f_r")
	pfSpec := fs.String("pf", "const:1", "forwarding probability schedule")
	partial := fs.Bool("partial-list", false, "enable the partial flooding list")
	lthr := fs.Float64("lthr", 0, "normalised list threshold L_thr (0 = unlimited; analytic model only)")
	updateBytes := fs.Int("update-bytes", 100, "update payload size U for S_M(t)")
	rounds := fs.Int("rounds", 60, "maximum simulation rounds (-push -sim)")
	viewSize := fs.Int("view", 0, "initial membership view size (-push -sim; 0 = complete)")
	traceN := fs.Int("trace", 0, "print the last N simulation events (-push -sim)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig == "" && !*table && *study == "" && !*push {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -fig, -table, -study, or -push")
	}
	if *push && *sim && *lthr > 0 {
		return fmt.Errorf("the simulator does not model -lthr; drop -sim or -lthr")
	}

	if *push {
		// A factory, not one parsed instance: an adaptive schedule
		// accumulates one update's evidence at one peer.
		newPF, err := pfparse.Factory(*pfSpec)
		if err != nil {
			return err
		}
		res, err := analytic.Push(analytic.PushParams{
			R: *r, ROn0: *online, Sigma: *sigma, Fr: *fr,
			PF: newPF(), PartialList: *partial, ListThreshold: *lthr,
			UpdateBytes: *updateBytes,
		})
		if err != nil {
			return err
		}
		printPush(out, res)
		if *sim {
			sp := experiments.SimParams{
				R: *r, ROn0: *online, Sigma: *sigma, Fr: *fr, NewPF: newPF,
				PartialList: *partial, Rounds: *rounds, ViewSize: *viewSize,
				Seed: *seed, TraceEvents: *traceN,
			}
			if err := printSimulatedPush(out, sp, res); err != nil {
				return err
			}
		}
	}

	if *fig != "" {
		figures := []experiments.Figure{}
		if *fig == "all" {
			figures = experiments.AllFigures()
		} else {
			f, err := experiments.FigureByID(*fig)
			if err != nil {
				return err
			}
			figures = append(figures, f)
		}
		for _, f := range figures {
			if *csv {
				printFigureCSV(out, f)
			} else {
				fmt.Fprintln(out, f.Render())
			}
			if *sim {
				if err := printSimOverlay(out, f.ID, *seed); err != nil {
					return err
				}
			}
		}
	}

	if *study != "" {
		if err := runStudy(out, *study, *seed); err != nil {
			return err
		}
	}

	if *table {
		blocks, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.RenderTable2(blocks))
		if *sim {
			if err := printSimulatedTable2(out, *seed); err != nil {
				return err
			}
		}
	}
	return nil
}

func printFigureCSV(out io.Writer, f experiments.Figure) {
	tb := &metrics.Table{Header: []string{"curve", f.XLabel, f.YLabel}}
	for _, c := range f.Curves {
		for _, p := range c.Points {
			tb.AddRow(c.Label, p.X, p.Y)
		}
	}
	fmt.Fprintf(out, "# Figure %s: %s\n%s", f.ID, f.Title, tb.CSV())
}

// printSimulatedTable2 re-runs the Table 2 top-block scenario on the
// stochastic simulator for every scheme of experiments.Table2Schemes.
func printSimulatedTable2(out io.Writer, seed int64) error {
	tb := &metrics.Table{Header: []string{"Scheme", "sim msgs/peer", "sim F_aware", "rounds"}}
	p := experiments.SimParams{R: 1000, ROn0: 1000, Sigma: 1, Fr: 0.004, Seed: seed}
	for _, s := range experiments.Table2Schemes() {
		p.NewPF, p.PartialList = s.NewPF, s.PartialList
		res, err := experiments.SimulatePush(p)
		if err != nil {
			return err
		}
		tb.AddRow(s.Scheme.String(), res.MessagesPerOnlinePeer, res.FinalAware, res.Rounds)
	}
	fmt.Fprintf(out, "Table 2 — simulated cross-check (R_on/R = 10^3/10^3, seed %d)\n%s", seed, tb.String())
	return nil
}

// runStudy executes one of the §8 future-work studies or the §4.2 L_thr
// sweep.
func runStudy(out io.Writer, name string, seed int64) error {
	switch name {
	case "bimodal":
		res, err := experiments.BimodalStudy(experiments.BimodalParams{
			R: 2000, ROn0: 200, Sigma: 1, Fr: 0.007,
			Trials: 60, ViewSize: 300, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Bimodality study (critical regime: R=2000, R_on=200, f_r=0.007)\n%s",
			experiments.RenderBimodal(res))
		return nil
	case "backbone":
		rows, err := experiments.BackboneStudy(experiments.BackboneParams{
			R: 200, MeanOnline: 0.3, BackboneFrac: 0.1, Trials: 3, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Non-uniform availability study (mean online 30%%)\n%s",
			experiments.RenderBackbone(rows))
		return nil
	case "lthr":
		rows, err := experiments.LThrSweep(experiments.LThrParams{
			R: 10_000, ROn0: 1000, Sigma: 0.95, Fr: 0.01, UpdateBytes: 100,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Partial-list threshold trade-off (R=10000, R_on=1000, sigma=0.95, f_r=0.01)\n%s",
			experiments.RenderLThr(rows))
		return nil
	default:
		return fmt.Errorf("unknown study %q (want bimodal, backbone, or lthr)", name)
	}
}

// printSimOverlay runs a reduced-scale (R = 2000) simulated counterpart of
// one analytic figure so the stochastic protocol can be eyeballed against
// the model.
func printSimOverlay(out io.Writer, figID string, seed int64) error {
	type variant struct {
		label string
		p     experiments.SimParams
	}
	base := experiments.SimParams{R: 2000, ROn0: 200, Sigma: 0.95, Fr: 0.05, Seed: seed}
	var variants []variant
	switch figID {
	case "1a":
		v := base
		v.ROn0 = 20
		variants = append(variants, variant{"R_on[0]/R = 20/2000", v})
	case "1b":
		for _, on := range []int{100, 200, 600} {
			v := base
			v.ROn0 = on
			variants = append(variants, variant{fmt.Sprintf("R_on[0] = %d", on), v})
		}
	case "2":
		for _, fr := range []float64{0.025, 0.05, 0.1} {
			v := base
			v.Sigma = 0.9
			v.Fr = fr
			variants = append(variants, variant{fmt.Sprintf("f_r = %g", fr), v})
		}
	case "3":
		for _, sigma := range []float64{1, 0.8, 0.5} {
			v := base
			v.Sigma = sigma
			variants = append(variants, variant{fmt.Sprintf("sigma = %g", sigma), v})
		}
	case "4":
		for _, b := range []float64{0.9, 0.7, 0.5} {
			b := b
			v := base
			v.Sigma = 0.9
			v.NewPF = func() pf.Func { return pf.Geometric{Base: b} }
			variants = append(variants, variant{fmt.Sprintf("PF(t) = %g^t", b), v})
		}
	default:
		fmt.Fprintf(out, "(no simulated overlay for figure %s)\n\n", figID)
		return nil
	}
	tb := &metrics.Table{Header: []string{"curve", "final F_aware", "msgs/online peer", "rounds"}}
	for _, v := range variants {
		res, err := experiments.SimulatePush(v.p)
		if err != nil {
			return err
		}
		tb.AddRow(v.label, res.FinalAware, res.MessagesPerOnlinePeer, res.Rounds)
	}
	fmt.Fprintf(out, "Simulated counterpart of figure %s (R = 2000, seed %d)\n%s\n", figID, seed, tb.String())
	return nil
}

// printPush prints the analytic push-phase trajectory of one scenario.
func printPush(out io.Writer, res analytic.PushResult) {
	p := res.Params
	fmt.Fprintf(out, "Push phase: R=%d R_on[0]=%d sigma=%g f_r=%g PF=%s partial-list=%v\n",
		p.R, p.ROn0, p.Sigma, p.Fr, p.PF, p.PartialList)
	tb := &metrics.Table{Header: []string{
		"t", "M(t)", "cum M", "cum M/R_on0", "dF_aware", "F_aware", "L(t)", "S_M(t) bytes",
	}}
	for _, round := range res.Rounds {
		tb.AddRow(round.T, round.Messages, round.CumMessages,
			round.CumMessages/float64(p.ROn0), round.DeltaAware,
			round.Aware, round.ListLen, round.MessageBytes)
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "total: %.1f messages, %.3f per initially-online peer, F_aware=%.4f in %d rounds\n",
		res.TotalMessages(), res.MessagesPerOnlinePeer(), res.FinalAware(), res.NumRounds())
}

// printSimulatedPush runs the -push scenario once on the discrete simulator
// and prints its per-round trajectory next to the analytic totals.
func printSimulatedPush(out io.Writer, p experiments.SimParams, ana analytic.PushResult) error {
	res, err := experiments.SimulatePush(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Simulated push: R=%d R_on[0]=%d sigma=%g f_r=%g PF=%s partial-list=%v seed=%d\n",
		p.R, p.ROn0, p.Sigma, p.Fr, ana.Params.PF, p.PartialList, p.Seed)
	tb := &metrics.Table{Header: []string{"round", "F_aware(online)", "cum msgs/R_on0"}}
	for i, pt := range res.Curve.Points {
		tb.AddRow(i, pt.X, pt.Y)
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "simulated: %.3f msgs/peer, F_aware=%.4f in %d rounds\n",
		res.MessagesPerOnlinePeer, res.FinalAware, res.Rounds)
	fmt.Fprintf(out, "analytic : %.3f msgs/peer, F_aware=%.4f\n", ana.MessagesPerOnlinePeer(), ana.FinalAware())
	if p.TraceEvents > 0 && res.Trace != nil {
		fmt.Fprintf(out, "\nlast %d simulation events:\n%s", p.TraceEvents, res.Trace.Render())
	}
	return nil
}
