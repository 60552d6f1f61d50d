package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/p2pgossip/update/internal/version"
)

// model is the §3 data model stated from its definitions, sharing no code
// with the store it checks. It keeps only the well-formed updates it has
// seen, in arrival order; every view is recomputed from them by brute force.
type model struct {
	seen    map[Ref]bool
	arrived []Update
}

func newModel() *model { return &model{seen: make(map[Ref]bool)} }

// apply returns the outcome and branch count the store must report.
func (m *model) apply(u Update) (ApplyResult, int) {
	switch {
	case u.Origin == "" || u.Seq == 0:
		return Obsolete, len(m.branches(u.Key))
	case m.seen[u.Ref()]:
		return Duplicate, len(m.branches(u.Key))
	}
	m.seen[u.Ref()] = true
	m.arrived = append(m.arrived, u)
	branches := m.branches(u.Key)
	for _, b := range branches {
		if b.Ref() == u.Ref() {
			return Applied, len(branches)
		}
	}
	return Obsolete, len(branches)
}

// branches returns the key's maximal histories under prefix order: the
// updates no other update of the key extends, the first arrival standing
// for histories that are Equal.
func (m *model) branches(key string) []Update {
	var out []Update
	for i, u := range m.arrived {
		if u.Key != key {
			continue
		}
		maximal := true
		for j, v := range m.arrived {
			if o := u.Version.Compare(v.Version); v.Key == key && (o == version.Before || o == version.Equal && j < i) {
				maximal = false
			}
		}
		if maximal {
			out = append(out, u)
		}
	}
	return out
}

// winner is the branch with the longest history, ties going to the larger
// head id; found is false for an unknown key or a deleted winner.
func (m *model) winner(key string) (w Update, found bool) {
	branches := m.branches(key)
	if len(branches) == 0 {
		return Update{}, false
	}
	head := func(u Update) []byte { return u.Version[len(u.Version)-1][:] }
	w = branches[0]
	for _, b := range branches[1:] {
		if len(b.Version) > len(w.Version) || len(b.Version) == len(w.Version) && bytes.Compare(head(b), head(w)) > 0 {
			w = b
		}
	}
	return w, !w.Delete
}

// keys lists the keys whose winner is live, sorted.
func (m *model) keys() []string {
	set := make(map[string]bool)
	for _, u := range m.arrived {
		if _, ok := m.winner(u.Key); ok {
			set[u.Key] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// clock maps each origin to the end of its contiguous run of seen sequence
// numbers from 1.
func (m *model) clock() version.Clock {
	c := version.NewClock()
	for _, u := range m.arrived {
		seq := uint64(0)
		for m.seen[Ref{Origin: u.Origin, Seq: seq + 1}] {
			seq++
		}
		if seq > 0 {
			c[u.Origin] = seq
		}
	}
	return c
}

// missingFor lists every seen update the remote clock lacks, sorted by
// origin, then sequence.
func (m *model) missingFor(remote version.Clock) []Update {
	var out []Update
	for _, u := range m.arrived {
		if u.Seq > remote.Get(u.Origin) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// TestShardedMatchesModel holds the store, at one, four and sixteen shards,
// to the model on random interleaved workloads with malformed noise and
// re-deliveries: every apply outcome and branch count, then the clock, the
// key set, every key's winner and branch count, the log size, and MissingFor
// for arbitrary remote clocks, in canonical order.
func TestShardedMatchesModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 41))
		workload := genWorkload(t, rng, 1+rng.Intn(5), 80)
		stream := append([]Update(nil), workload...)
		for i := 0; i < len(workload)/3; i++ {
			stream = append(stream, workload[rng.Intn(len(workload))])
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

		for _, shards := range []int{1, 4, 16} {
			where := fmt.Sprintf("trial %d, %d shards", trial, shards)
			m, st := newModel(), NewSharded(shards)
			for i, u := range stream {
				wantRes, wantBranches := m.apply(u)
				if res, branches := st.ApplyObserved(u); res != wantRes || branches != wantBranches {
					t.Fatalf("%s: apply %d (%s) = (%v, %d branches), model (%v, %d)",
						where, i, u.ID(), res, branches, wantRes, wantBranches)
				}
			}
			if got, want := st.Clock(), m.clock(); got.Compare(want) != version.Equal {
				t.Fatalf("%s: clock %v, model %v", where, got, want)
			}
			if got, want := fmt.Sprint(st.Keys()), fmt.Sprint(m.keys()); got != want {
				t.Fatalf("%s: keys %s, model %s", where, got, want)
			}
			for k := 0; k < 12; k++ {
				key := fmt.Sprintf("key-%d", k)
				w, wantOK := m.winner(key)
				rev, ok := st.Get(key)
				if ok != wantOK || ok && (!bytes.Equal(rev.Value, w.Value) || rev.Version.Compare(w.Version) != version.Equal) {
					t.Fatalf("%s: winner of %s = %q (found %v), model %q (found %v)", where, key, rev.Value, ok, w.Value, wantOK)
				}
				if got, want := st.BranchCount(key), len(m.branches(key)); got != want {
					t.Fatalf("%s: %s has %d branches, model %d", where, key, got, want)
				}
			}
			if got, want := st.UpdateCount(), len(m.arrived); got != want {
				t.Fatalf("%s: %d updates logged, model %d", where, got, want)
			}
			for probe := 0; probe < 10; probe++ {
				var remote version.Clock
				if probe > 0 {
					remote = version.NewClock()
					for o, seq := range m.clock() {
						remote[o] = uint64(rng.Int63n(int64(seq) + 2))
					}
				}
				if got, want := fmt.Sprint(refsOf(st.MissingFor(remote))), fmt.Sprint(refsOf(m.missingFor(remote))); got != want {
					t.Fatalf("%s: MissingFor(%v) = %s, model %s", where, remote, got, want)
				}
			}
		}
	}
}
