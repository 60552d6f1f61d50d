package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/p2pgossip/update/internal/experiments"
	"github.com/p2pgossip/update/internal/pf"
)

func TestRunSingleFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Figure 2") || !strings.Contains(got, "F_r = 0.05") {
		t.Fatalf("figure 2 output malformed:\n%s", got)
	}
}

func TestRunAllFigures(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "all"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Figure 1a", "Figure 1b", "Figure 2",
		"Figure 3", "Figure 4", "Figure 5", "Figure pull"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in -fig all output", want)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "3", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "curve,F_aware,") {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
}

func TestRunTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"Gnutella", "Using Partial List",
		"Haas et al. G(0.8,2)", "Our Scheme", "paper msgs/peer"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table output missing %q:\n%s", want, got)
		}
	}
}

func TestRunTableSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated table is slow")
	}
	var out strings.Builder
	if err := run([]string{"-table", "-sim", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "simulated cross-check") {
		t.Fatalf("simulated table missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no arguments should error")
	}
	if err := run([]string{"-fig", "99"}, &out); err == nil {
		t.Fatal("unknown figure should error")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag should error")
	}
	if err := run([]string{"-push", "-sim", "-lthr", "0.05"}, &out); err == nil {
		t.Fatal("-lthr is not simulated, so -sim with it should error")
	}
}

func TestRunStudies(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-study", "lthr"}, &out); err != nil {
		t.Fatalf("lthr study: %v", err)
	}
	if !strings.Contains(out.String(), "threshold trade-off") {
		t.Fatalf("lthr output malformed:\n%s", out.String())
	}
	if err := run([]string{"-study", "nope"}, &out); err == nil {
		t.Fatal("unknown study accepted")
	}
}

func TestRunStudyBackbone(t *testing.T) {
	if testing.Short() {
		t.Skip("backbone study is slow")
	}
	var out strings.Builder
	if err := run([]string{"-study", "backbone", "-seed", "2"}, &out); err != nil {
		t.Fatalf("backbone study: %v", err)
	}
	if !strings.Contains(out.String(), "backbone") {
		t.Fatalf("backbone output malformed:\n%s", out.String())
	}
}

func TestRunFigureWithSimOverlay(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "3", "-sim", "-seed", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Simulated counterpart of figure 3") {
		t.Fatalf("overlay missing:\n%s", out.String())
	}
	// Figures without an overlay say so instead of failing.
	out.Reset()
	if err := run([]string{"-fig", "5", "-sim"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "no simulated overlay") {
		t.Fatalf("placeholder missing:\n%s", out.String())
	}
}

func TestPushDefaults(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-push"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Push phase: R=10000") {
		t.Fatalf("header missing:\n%s", got)
	}
	if !strings.Contains(got, "F_aware") || !strings.Contains(got, "per initially-online peer") {
		t.Fatalf("summary missing:\n%s", got)
	}
}

func TestPushWithSchedule(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-push", "-pf", "geom:0.9", "-partial-list", "-r", "1000",
		"-online", "1000", "-sigma", "1", "-fr", "0.004"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "PF=PF(t)=0.9^t") {
		t.Fatalf("schedule not echoed:\n%s", out.String())
	}
}

func TestPushWithThreshold(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-push", "-partial-list", "-lthr", "0.05"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// L(t) column must be capped at the threshold.
	if strings.Contains(out.String(), "0.0773") {
		t.Fatalf("threshold not applied:\n%s", out.String())
	}
}

func TestPushErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-push", "-pf", "nonsense:1"}, &out); err == nil {
		t.Fatal("bad schedule should error")
	}
	if err := run([]string{"-push", "-r", "-5"}, &out); err == nil {
		t.Fatal("bad population should error")
	}
	if err := run([]string{"-push", "-bogus"}, &out); err == nil {
		t.Fatal("unknown flag should error")
	}
}

func TestPushSimDefaultScenario(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-push", "-sim", "-r", "500", "-online", "100", "-fr", "0.05", "-seed", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Simulated push: R=500") {
		t.Fatalf("header missing:\n%s", got)
	}
	if !strings.Contains(got, "simulated:") || !strings.Contains(got, "analytic :") {
		t.Fatalf("cross-check lines missing:\n%s", got)
	}
}

func TestPushSimWithScheduleAndList(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-push", "-sim", "-r", "400", "-online", "400", "-sigma", "1",
		"-fr", "0.01", "-pf", "geom:0.9", "-partial-list", "-seed", "5"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "partial-list=true") {
		t.Fatalf("options not echoed:\n%s", out.String())
	}
}

func TestPushSimErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-push", "-sim", "-pf", "junk"}, &out); err == nil {
		t.Fatal("bad schedule should error")
	}
	if err := run([]string{"-push", "-sim", "-r", "0"}, &out); err == nil {
		t.Fatal("bad population should error")
	}
	if err := run([]string{"-push", "-sim", "-nope"}, &out); err == nil {
		t.Fatal("unknown flag should error")
	}
}

// TestAdaptiveScheduleIsPerUpdate: -pf adaptive gives every peer's copy of
// the update its own schedule, so the simulated line matches SimulatePush
// with a fresh pf.Adaptive per call. A single shared instance lets one
// peer's list-fraction observations lower every other peer's PF.
func TestAdaptiveScheduleIsPerUpdate(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-push", "-sim", "-r", "300", "-online", "300", "-sigma", "1",
		"-fr", "0.02", "-pf", "adaptive:1", "-partial-list", "-seed", "3"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want, err := experiments.SimulatePush(experiments.SimParams{
		R: 300, ROn0: 300, Sigma: 1, Fr: 0.02, PartialList: true, Rounds: 60, Seed: 3,
		NewPF: func() pf.Func { return pf.NewAdaptive(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("simulated: %.3f msgs/peer, F_aware=%.4f in %d rounds",
		want.MessagesPerOnlinePeer, want.FinalAware, want.Rounds)
	if !strings.Contains(out.String(), line) {
		t.Fatalf("want %q in output:\n%s", line, out.String())
	}
}
