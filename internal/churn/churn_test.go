package churn

import (
	"math"
	"math/rand"
	"testing"
)

func TestBernoulliStationary(t *testing.T) {
	tests := []struct {
		name  string
		proc  Bernoulli
		want  float64
		isNaN bool
	}{
		{"paper 10%", Bernoulli{Sigma: 0.99, POn: 0.00111111}, 0.1, false},
		{"symmetric", Bernoulli{Sigma: 0.5, POn: 0.5}, 0.5, false},
		{"absorbing", Bernoulli{Sigma: 1, POn: 0}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.proc.StationaryOnline()
			if tt.isNaN {
				if !math.IsNaN(got) {
					t.Fatalf("StationaryOnline = %v, want NaN", got)
				}
				return
			}
			if math.Abs(got-tt.want) > 1e-3 {
				t.Fatalf("StationaryOnline = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBernoulliEmpirical(t *testing.T) {
	// An online population under sigma=0.9, p_on=0 should decay
	// geometrically: after k rounds ≈ 0.9^k remain.
	rng := rand.New(rand.NewSource(1))
	pop, err := NewPopulation(10000, 10000, Bernoulli{Sigma: 0.9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		pop.Step(r)
	}
	want := 10000 * math.Pow(0.9, 5)
	got := float64(pop.OnlineCount())
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("after 5 rounds online = %v, want ≈ %v", got, want)
	}
}

func TestBernoulliComeOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop, err := NewPopulation(10000, 0, Bernoulli{Sigma: 1, POn: 0.25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	came := pop.Step(0)
	if len(came) != pop.OnlineCount() {
		t.Fatalf("cameOnline %d != online %d", len(came), pop.OnlineCount())
	}
	if got := float64(len(came)); math.Abs(got-2500)/2500 > 0.1 {
		t.Fatalf("came online %v, want ≈ 2500", got)
	}
}

func TestStaticNeverChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, err := NewPopulation(100, 40, Static{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		if came := pop.Step(r); len(came) != 0 {
			t.Fatalf("static process brought peers online: %v", came)
		}
	}
	if pop.OnlineCount() != 40 {
		t.Fatalf("online count drifted to %d", pop.OnlineCount())
	}
}

func TestNonUniformBackbone(t *testing.T) {
	nu := NewBackbone(10, 0.3, 1.0, 1.0, 0.0, 0.0)
	if len(nu.Procs) != 10 {
		t.Fatalf("procs = %d, want 10", len(nu.Procs))
	}
	rng := rand.New(rand.NewSource(6))
	// Backbone peers (0..2) stay online; flaky peers (3..9) drop instantly.
	for i := 0; i < 3; i++ {
		if nu.Next(i, Online, rng) != Online {
			t.Fatalf("backbone peer %d went offline", i)
		}
	}
	for i := 3; i < 10; i++ {
		if nu.Next(i, Online, rng) != Offline {
			t.Fatalf("flaky peer %d stayed online", i)
		}
	}
}

func TestNonUniformEmpty(t *testing.T) {
	var nu NonUniform
	rng := rand.New(rand.NewSource(7))
	if nu.Next(0, Online, rng) != Online {
		t.Fatal("empty NonUniform should be identity")
	}
	if nu.Next(-5, Offline, rng) != Offline {
		t.Fatal("empty NonUniform should be identity for negative peer too")
	}
}

func TestNonUniformNegativePeerIndex(t *testing.T) {
	nu := NewBackbone(4, 1.0, 1.0, 1.0, 0, 0)
	rng := rand.New(rand.NewSource(8))
	// Must not panic and must map into the palette.
	_ = nu.Next(-3, Online, rng)
}

func TestNewPopulationValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []struct {
		name    string
		n, on   int
		proc    Process
		withRNG bool
	}{
		{"zero size", 0, 0, Static{}, true},
		{"negative online", 10, -1, Static{}, true},
		{"online > n", 10, 11, Static{}, true},
		{"nil process", 10, 5, nil, true},
		{"nil rng", 10, 5, Static{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := rng
			if !tt.withRNG {
				r = nil
			}
			if _, err := NewPopulation(tt.n, tt.on, tt.proc, r); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestPopulationSetOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pop, err := NewPopulation(3, 0, Static{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pop.SetOnline(1, true)
	if !pop.Online(1) || pop.OnlineCount() != 1 {
		t.Fatalf("SetOnline failed: online=%v count=%d", pop.Online(1), pop.OnlineCount())
	}
	pop.SetOnline(1, true) // idempotent
	if pop.OnlineCount() != 1 {
		t.Fatalf("idempotent SetOnline changed count to %d", pop.OnlineCount())
	}
	pop.SetOnline(1, false)
	if pop.Online(1) || pop.OnlineCount() != 0 {
		t.Fatalf("SetOnline(false) failed")
	}
}

func TestOnlinePeers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pop, err := NewPopulation(5, 2, Static{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := pop.OnlinePeers(nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("OnlinePeers = %v, want [0 1]", got)
	}
	// Appends to dst.
	got = pop.OnlinePeers([]int{99})
	if len(got) != 3 || got[0] != 99 {
		t.Fatalf("OnlinePeers append = %v", got)
	}
}

func TestProcessStrings(t *testing.T) {
	procs := []Process{
		Bernoulli{Sigma: 0.9, POn: 0.1},
		Static{},
		NewBackbone(4, 0.5, 1, 1, 0, 0),
	}
	for _, p := range procs {
		if p.String() == "" {
			t.Fatalf("%T has empty String()", p)
		}
	}
}
