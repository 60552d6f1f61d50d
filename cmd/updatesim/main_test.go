package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/p2pgossip/update/internal/experiments"
	"github.com/p2pgossip/update/internal/pf"
)

func TestRunDefaultScenario(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-r", "500", "-online", "100", "-fr", "0.05", "-seed", "2"}, &out)
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

func TestRunWithScheduleAndList(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-r", "400", "-online", "400", "-sigma", "1",
		"-fr", "0.01", "-pf", "geom:0.9", "-partial-list", "-seed", "5"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "partial-list=true") {
		t.Fatalf("options not echoed:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-pf", "junk"}, &out); err == nil {
		t.Fatal("bad schedule should error")
	}
	if err := run([]string{"-r", "0"}, &out); err == nil {
		t.Fatal("bad population should error")
	}
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag should error")
	}
}

// TestAdaptiveScheduleIsPerUpdate: -pf adaptive gives every peer's copy of
// the update its own schedule, so the simulated line matches SimulatePush
// with a fresh pf.Adaptive per call. A single shared instance lets one
// peer's list-fraction observations lower every other peer's PF.
func TestAdaptiveScheduleIsPerUpdate(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-r", "300", "-online", "300", "-sigma", "1",
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
