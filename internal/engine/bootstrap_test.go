package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// twinViews returns two engines with the same id, config and rng seed: one
// seeded with Bootstrap(ids), the other taught ids one Learn at a time.
func twinViews(t *testing.T, cfg Config[int], ids []int) (seeded, learned *Engine[int], sep, lep *testEndpoint) {
	t.Helper()
	seeded, sep = newTestEngine(t, 0, cfg, nil)
	learned, lep = newTestEngine(t, 0, cfg, nil)
	seeded.Bootstrap(ids)
	for _, id := range ids {
		learned.Learn(id)
	}
	return seeded, learned, sep, lep
}

func TestBootstrapMatchesLearn(t *testing.T) {
	ids := rand.New(rand.NewSource(3)).Perm(60)[1:] // distinct, may include self (0)
	a, b, _, _ := twinViews(t, Config[int]{Fanout: 4}, ids)

	// Sampling without an exclusion needs no index.
	for i := 0; i < 100; i++ {
		sa, sb := a.SamplePeers(4), b.SamplePeers(4)
		if !slices.Equal(sa, sb) {
			t.Fatalf("draw %d: bootstrapped %v, learned %v", i, sa, sb)
		}
	}
	if a.view.pos != nil {
		t.Fatal("sampling built the membership index")
	}
	if ka, kb := a.KnownPeers(), b.KnownPeers(); !slices.Equal(ka, kb) {
		t.Fatalf("KnownPeers: bootstrapped %v, learned %v", ka, kb)
	}
	for id := -2; id < 65; id++ {
		if a.Knows(id) != b.Knows(id) {
			t.Fatalf("Knows(%d): bootstrapped %v, learned %v", id, a.Knows(id), b.Knows(id))
		}
	}
	for _, id := range []int{ids[0], ids[len(ids)-1], 70} {
		if ga, gb := a.Learn(id), b.Learn(id); ga != gb || ga != (id == 70) {
			t.Fatalf("Learn(%d): bootstrapped %v, learned %v", id, ga, gb)
		}
	}
	checkViewInvariants(t, a)
}

// TestBootstrapAckStateBeforeIndex runs promote, suspend and release on a
// seeded view whose index does not exist yet.
func TestBootstrapAckStateBeforeIndex(t *testing.T) {
	cfg := Config[int]{Fanout: 3, Acks: true, AckTimeout: 1 << 40, SuspectTTL: 10}
	ids := []int{4, 9, 1, 7, 3, 8, 2, 6, 5}
	steps := map[string]func(e *Engine[int], ep *testEndpoint){
		"promote": func(e *Engine[int], _ *testEndpoint) {
			deliver(e, 7, Message[int]{Kind: KindAck})
		},
		"suspend": func(e *Engine[int], _ *testEndpoint) { e.suspect(3, 0) },
		"release": func(e *Engine[int], ep *testEndpoint) {
			e.suspect(3, 0)
			ep.now = 20
			e.Sweep()
		},
	}
	for name, step := range steps {
		a, b, aep, bep := twinViews(t, cfg, ids)
		if a.view.pos != nil {
			t.Fatal("Bootstrap built the membership index")
		}
		step(a, aep)
		step(b, bep)
		if ka, kb := a.KnownPeers(), b.KnownPeers(); !slices.Equal(ka, kb) {
			t.Fatalf("%s: bootstrapped %v, learned %v", name, ka, kb)
		}
		checkViewInvariants(t, a)
	}
}

func TestBootstrapAllocatesOnlyTheView(t *testing.T) {
	ids := make([]int, 500)
	for i := range ids {
		ids[i] = i + 1
	}
	engines := make([]*Engine[int], 101) // AllocsPerRun runs once more to warm up
	for i := range engines {
		engines[i], _ = newTestEngine(t, 0, Config[int]{Fanout: 2}, nil)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(engines)-1, func() {
		engines[next].Bootstrap(ids)
		next++
	})
	if allocs > 1 {
		t.Fatalf("Bootstrap of 500 ids allocates %.1f times, want at most 1", allocs)
	}
	for _, e := range engines {
		if e.view.pos != nil || e.KnownCount() != len(ids) {
			t.Fatalf("view holds %d peers with index %v", e.KnownCount(), e.view.pos != nil)
		}
	}
}

// TestBootstrapFiltersAndRepeats pins the edge cases: self and invalid ids
// are skipped as Learn skips them; a view already holding peers is replaced;
// a repeat is a caller bug that panics when the index is built.
func TestBootstrapFiltersAndRepeats(t *testing.T) {
	cfg := Config[int]{Fanout: 2, ValidID: func(id int) bool { return id >= 0 }}
	e, _ := newTestEngine(t, 5, cfg, nil)
	e.Bootstrap([]int{1, 5, -3, 2})
	if got := e.KnownPeers(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("KnownPeers = %v, want [1 2]", got)
	}

	e.Learn(4) // builds the index Bootstrap must drop
	e.Bootstrap([]int{3, 2})
	if got := e.KnownPeers(); !slices.Equal(got, []int{3, 2}) || e.Knows(1) || e.Knows(4) {
		t.Fatalf("KnownPeers = %v after a second Bootstrap, want [3 2]", got)
	}

	r, _ := newTestEngine(t, 0, cfg, nil)
	r.Bootstrap([]int{1, 2, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("a repeated id did not panic at the index build")
		}
	}()
	r.Knows(1)
}
