package scenario

import (
	"bytes"
	"testing"
)

// TestCatalogShape checks the catalog is the advertised matrix: at least 8
// uniquely named, valid scenarios.
func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 8 {
		t.Fatalf("catalog has %d scenarios, want >= 8", len(cat))
	}
	seen := make(map[string]bool)
	for _, sc := range cat {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	if _, ok := Find("combined-chaos"); !ok {
		t.Fatal("Find missed a catalog scenario")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find invented a scenario")
	}
}

// TestCatalogInvariants runs every catalog scenario under one seed and
// requires all invariants to pass — the tier-1 mirror of the CI matrix.
func TestCatalogInvariants(t *testing.T) {
	for _, sc := range Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, 1)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, inv := range res.Invariants {
				if !inv.Passed {
					t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
				}
			}
			if !res.Passed {
				t.Fail()
			}
			if res.Published == 0 || res.Published != len(res.Updates) {
				t.Fatalf("published %d updates, listed %d", res.Published, len(res.Updates))
			}
		})
	}
}

// TestRejoinBytesBoundedWithoutCompaction reruns the long-absent rejoiner
// with the janitor off: the responders then hold every overwrite ever made,
// and the catch-up must still be one snapshot whose bytes are bounded by the
// live state — the live cut, not a prior compaction, is what keeps it small.
func TestRejoinBytesBoundedWithoutCompaction(t *testing.T) {
	sc, ok := Find("long-absent-rejoiner")
	if !ok {
		t.Fatal("long-absent-rejoiner missing")
	}
	sc.Config.CompactEvery = 0
	sc.LogBoundFactor = 0 // nothing compacts, so the log is not bounded here
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(sc, seed)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.LogCompacted != 0 {
			t.Fatalf("seed %d: %d entries compacted with the janitor off", seed, res.LogCompacted)
		}
		for _, inv := range res.Invariants {
			if !inv.Passed {
				t.Errorf("seed %d: invariant %s violated: %s", seed, inv.Name, inv.Detail)
			}
		}
	}
}

// TestRunDeterministic runs the heaviest scenario twice under the same seed
// and requires byte-identical JSON — the contract cmd/scenarios -seed S
// advertises.
func TestRunDeterministic(t *testing.T) {
	sc, ok := Find("combined-chaos")
	if !ok {
		t.Fatal("combined-chaos missing")
	}
	render := func() []byte {
		res, err := Run(sc, 7)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		raw, err := res.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return raw
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different JSON:\n%s\nvs\n%s", a, b)
	}
}

// TestSeedsDiverge sanity-checks the seed actually matters: different seeds
// should produce different message counts under churn.
func TestSeedsDiverge(t *testing.T) {
	sc, ok := Find("heavy-churn")
	if !ok {
		t.Fatal("heavy-churn missing")
	}
	a, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages == b.Messages && a.FinalOnline == b.FinalOnline {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestValidateRejectsBadScenarios covers the scenario-level validation.
func TestValidateRejectsBadScenarios(t *testing.T) {
	good := steadyState()
	mutations := []func(*Scenario){
		func(s *Scenario) { s.Name = "" },
		func(s *Scenario) { s.N = 0 },
		func(s *Scenario) { s.InitialOnline = s.N + 1 },
		func(s *Scenario) { s.FaultRounds = 0 },
		func(s *Scenario) { s.SettleRounds = 0 },
		func(s *Scenario) { s.OverheadFactor = 0 },
		func(s *Scenario) { s.AnalyticSigma = 0 },
		func(s *Scenario) { s.Workload = []Publish{{Round: -1, Peer: 0, Key: "k"}} },
		func(s *Scenario) { s.Workload = []Publish{{Round: 0, Peer: s.N, Key: "k"}} },
		func(s *Scenario) { s.Config.R = 0 },
	}
	for i, mutate := range mutations {
		sc := good
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
