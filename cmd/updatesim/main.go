// Command updatesim runs one stochastic push-phase scenario on the discrete
// simulator and prints the per-round trajectory next to the analytical
// prediction.
//
// Usage:
//
//	updatesim -r 2000 -online 200 -sigma 0.95 -fr 0.05 -partial-list
//	updatesim -r 1000 -online 1000 -sigma 1 -fr 0.004 -pf geom:0.9 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/p2pgossip/update/internal/experiments"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/pfparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "updatesim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("updatesim", flag.ContinueOnError)
	r := fs.Int("r", 2000, "total number of replicas R")
	online := fs.Int("online", 200, "initially online replicas")
	sigma := fs.Float64("sigma", 0.95, "probability of staying online per round")
	fr := fs.Float64("fr", 0.05, "fanout fraction f_r")
	pfSpec := fs.String("pf", "const:1", "forwarding probability schedule (see cmd/analytic)")
	partial := fs.Bool("partial-list", false, "enable the partial flooding list")
	rounds := fs.Int("rounds", 60, "maximum simulation rounds")
	viewSize := fs.Int("view", 0, "initial membership view size (0 = complete)")
	seed := fs.Int64("seed", 1, "random seed")
	traceN := fs.Int("trace", 0, "print the last N simulation events")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A factory, not one parsed instance: an adaptive schedule accumulates
	// one update's evidence at one peer.
	newPF, err := pfparse.Factory(*pfSpec)
	if err != nil {
		return err
	}
	params := experiments.SimParams{
		R: *r, ROn0: *online, Sigma: *sigma, Fr: *fr,
		NewPF:       newPF,
		PartialList: *partial, Rounds: *rounds, ViewSize: *viewSize, Seed: *seed,
		TraceEvents: *traceN,
	}
	sim, err := experiments.SimulatePush(params)
	if err != nil {
		return err
	}
	anaMsgs, simMsgs, anaAware, simAware, err := experiments.CrossCheck(params)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Simulated push: R=%d R_on[0]=%d sigma=%g f_r=%g PF=%s partial-list=%v seed=%d\n",
		*r, *online, *sigma, *fr, newPF(), *partial, *seed)
	tb := &metrics.Table{Header: []string{"round", "F_aware(online)", "cum msgs/R_on0"}}
	for i, p := range sim.Curve.Points {
		tb.AddRow(i, p.X, p.Y)
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "simulated: %.3f msgs/peer, F_aware=%.4f in %d rounds\n",
		simMsgs, simAware, sim.Rounds)
	fmt.Fprintf(out, "analytic : %.3f msgs/peer, F_aware=%.4f\n", anaMsgs, anaAware)
	if *traceN > 0 && sim.Trace != nil {
		fmt.Fprintf(out, "\nlast %d simulation events:\n%s", *traceN, sim.Trace.Render())
	}
	return nil
}
