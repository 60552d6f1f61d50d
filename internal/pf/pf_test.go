package pf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	tests := []struct {
		c    float64
		want float64
	}{
		{1, 1}, {0.8, 0.8}, {0, 0}, {-0.5, 0}, {1.5, 1},
	}
	for _, tt := range tests {
		f := Constant{C: tt.c}
		for _, round := range []int{0, 1, 100} {
			if got := f.P(round); got != tt.want {
				t.Fatalf("Constant(%g).P(%d) = %g, want %g", tt.c, round, got, tt.want)
			}
		}
	}
	if Always().P(7) != 1 {
		t.Fatal("Always should return 1")
	}
}

func TestLinear(t *testing.T) {
	f := Linear{Start: 1, Slope: 0.1} // the paper's 1 − 0.1t
	tests := []struct {
		t    int
		want float64
	}{
		{0, 1}, {1, 0.9}, {5, 0.5}, {10, 0}, {20, 0},
	}
	for _, tt := range tests {
		if got := f.P(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("Linear.P(%d) = %g, want %g", tt.t, got, tt.want)
		}
	}
}

func TestGeometric(t *testing.T) {
	f := Geometric{Base: 0.5}
	tests := []struct {
		t    int
		want float64
	}{
		{-1, 1}, {0, 1}, {1, 0.5}, {2, 0.25}, {3, 0.125},
	}
	for _, tt := range tests {
		if got := f.P(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("Geometric.P(%d) = %g, want %g", tt.t, got, tt.want)
		}
	}
}

func TestAffineGeometric(t *testing.T) {
	// The Fig. 5 schedule: 0.8·0.7^t + 0.2.
	f := AffineGeometric{A: 0.8, B: 0.7, C: 0.2}
	if got := f.P(0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("P(0) = %g, want 1", got)
	}
	if got := f.P(1); math.Abs(got-(0.8*0.7+0.2)) > 1e-12 {
		t.Fatalf("P(1) = %g", got)
	}
	// Approaches the floor 0.2 for large t.
	if got := f.P(50); math.Abs(got-0.2) > 1e-6 {
		t.Fatalf("P(50) = %g, want ≈ 0.2", got)
	}
	if got := f.P(-3); got != 1 {
		t.Fatalf("negative rounds clamp to t=0, got %g", got)
	}
}

func TestTTL(t *testing.T) {
	f := TTL{Rounds: 3}
	for _, tt := range []struct {
		t    int
		want float64
	}{{0, 1}, {2, 1}, {3, 0}, {10, 0}} {
		if got := f.P(tt.t); got != tt.want {
			t.Fatalf("TTL.P(%d) = %g, want %g", tt.t, got, tt.want)
		}
	}
}

func TestHaas(t *testing.T) {
	f := Haas{P1: 0.8, K: 2} // the paper's G(0.8, 2)
	for _, tt := range []struct {
		t    int
		want float64
	}{{0, 1}, {1, 1}, {2, 0.8}, {9, 0.8}} {
		if got := f.P(tt.t); got != tt.want {
			t.Fatalf("Haas.P(%d) = %g, want %g", tt.t, got, tt.want)
		}
	}
}

func TestAllFuncsInRange(t *testing.T) {
	funcs := []Func{
		Constant{C: 2}, Constant{C: -1},
		Linear{Start: 5, Slope: 3},
		Geometric{Base: 1.2},
		AffineGeometric{A: 3, B: 0.5, C: 0.5},
		TTL{Rounds: 4},
		Haas{P1: 1.7, K: 1},
		NewAdaptive(2.0),
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: quickValues(func(args []interface{}, r *rand.Rand) {
			args[0] = r.Intn(200) - 10
		}),
	}
	for _, f := range funcs {
		f := f
		prop := func(round int) bool {
			p := f.P(round)
			return p >= 0 && p <= 1 && !math.IsNaN(p)
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s out of range: %v", f, err)
		}
	}
}

func TestMonotoneDecay(t *testing.T) {
	// All decaying schedules must be non-increasing in t.
	funcs := []Func{
		Linear{Start: 1, Slope: 0.1},
		Geometric{Base: 0.9},
		AffineGeometric{A: 0.8, B: 0.7, C: 0.2},
		TTL{Rounds: 5},
		Haas{P1: 0.8, K: 2},
	}
	for _, f := range funcs {
		prev := f.P(0)
		for r := 1; r < 30; r++ {
			cur := f.P(r)
			if cur > prev+1e-12 {
				t.Errorf("%s increased: P(%d)=%g > P(%d)=%g", f, r, cur, r-1, prev)
			}
			prev = cur
		}
	}
}

func TestAdaptiveDuplicateDecay(t *testing.T) {
	a := NewAdaptive(1.0)
	p0 := a.P(0)
	if p0 != 1 {
		t.Fatalf("initial P = %g, want 1", p0)
	}
	a.ObserveDuplicate()
	p1 := a.P(1)
	if p1 >= p0 {
		t.Fatalf("P did not decay after duplicate: %g >= %g", p1, p0)
	}
	for i := 0; i < 50; i++ {
		a.ObserveDuplicate()
	}
	if got := a.P(2); math.Abs(got-a.Floor) > 1e-12 {
		t.Fatalf("P should bottom out at floor %g, got %g", a.Floor, got)
	}
	if a.Duplicates() != 51 {
		t.Fatalf("Duplicates = %d, want 51", a.Duplicates())
	}
}

func TestAdaptiveListFraction(t *testing.T) {
	a := NewAdaptive(1.0)
	a.Floor = 0
	a.DupDecay = 1 // isolate list effect
	a.ObserveListFraction(0.5)
	if got := a.P(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("P with L=0.5 = %g, want 0.5", got)
	}
	// Monotone: observing a smaller fraction does not raise the estimate.
	a.ObserveListFraction(0.2)
	if got := a.P(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("list estimate regressed: P = %g", got)
	}
	a.ObserveListFraction(1.0)
	if got := a.P(0); got != 0 {
		t.Fatalf("P with L=1 = %g, want 0", got)
	}
	// Out-of-range observations clamp.
	a.Reset()
	a.ObserveListFraction(7)
	if got := a.P(0); got != 0 {
		t.Fatalf("clamped list fraction: P = %g, want 0", got)
	}
}

func TestAdaptiveReset(t *testing.T) {
	a := NewAdaptive(0.9)
	a.ObserveDuplicate()
	a.ObserveListFraction(0.9)
	a.Reset()
	if got := a.P(0); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("P after Reset = %g, want 0.9", got)
	}
	if a.Duplicates() != 0 {
		t.Fatalf("Duplicates after Reset = %d", a.Duplicates())
	}
}

func TestStrings(t *testing.T) {
	funcs := []Func{
		Constant{C: 0.8}, Linear{Start: 1, Slope: 0.1}, Geometric{Base: 0.9},
		AffineGeometric{A: 0.8, B: 0.7, C: 0.2}, TTL{Rounds: 7},
		Haas{P1: 0.8, K: 2}, NewAdaptive(1),
	}
	for _, f := range funcs {
		if f.String() == "" {
			t.Fatalf("%T has empty String", f)
		}
	}
}

func quickValues(fill func(args []interface{}, r *rand.Rand)) func([]reflect.Value, *rand.Rand) {
	return func(vals []reflect.Value, r *rand.Rand) {
		args := make([]interface{}, len(vals))
		fill(args, r)
		for i := range vals {
			vals[i] = reflect.ValueOf(args[i])
		}
	}
}
