package engine

// Tests for the flooding list R_f: the orderedSet behind each update's
// accumulated list, and the random truncation of its carried copy (§4.2).

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOrderedSetAddContains(t *testing.T) {
	var s orderedSet[int]
	if s.Len() != 0 {
		t.Fatalf("new set Len = %d", s.Len())
	}
	if !s.Add(7) {
		t.Fatal("first Add returned false")
	}
	if s.Add(7) {
		t.Fatal("duplicate Add returned true")
	}
	if !s.Contains(7) || s.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestOrderedSetZeroValue: the zero value is an empty, usable set, on both
// sides of listMapThreshold.
func TestOrderedSetZeroValue(t *testing.T) {
	var s orderedSet[int]
	if s.Len() != 0 || s.Contains(1) || len(s.View()) != 0 {
		t.Fatalf("zero set: Len = %d, Contains(1) = %v", s.Len(), s.Contains(1))
	}
	if !s.Add(1) {
		t.Fatal("Add on zero value failed")
	}
	if !s.Contains(1) {
		t.Fatal("Contains on zero value failed")
	}
	for i := 2; i <= 2*listMapThreshold; i++ {
		s.Add(i)
	}
	if !s.Contains(1) || !s.Contains(2*listMapThreshold) || s.Len() != 2*listMapThreshold {
		t.Fatalf("set grown from zero value lost entries: Len = %d", s.Len())
	}
}

func TestOrderedSetAddAllDedup(t *testing.T) {
	var s orderedSet[int]
	if n := s.AddAll([]int{3, 1, 3, 2, 1}); n != 3 {
		t.Fatalf("AddAll inserted %d, want 3", n)
	}
	if got, want := s.Slice(), []int{3, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Slice = %v, want %v (first-insertion order)", got, want)
	}
}

// TestOrderedSetUnionPreservesBoth: adding a second list keeps every entry
// of both, appends only the new ones, and leaves the inputs as they were.
func TestOrderedSetUnionPreservesBoth(t *testing.T) {
	a, b := []int{1, 2, 3}, []int{3, 4}
	var s orderedSet[int]
	s.AddAll(a)
	if n := s.AddAll(b); n != 1 {
		t.Fatalf("AddAll inserted %d, want 1", n)
	}
	if s.Len() != 4 {
		t.Fatalf("union Len = %d, want 4", s.Len())
	}
	for _, id := range []int{1, 2, 3, 4} {
		if !s.Contains(id) {
			t.Fatalf("union missing %d", id)
		}
	}
	if got, want := s.Slice(), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(a, []int{1, 2, 3}) || !reflect.DeepEqual(b, []int{3, 4}) {
		t.Fatal("AddAll modified an input")
	}
}

// TestOrderedSetIsSetUnion checks that AddAll of two lists holds exactly
// their set union, on both sides of listMapThreshold (where the set starts
// indexing its entries in a map).
func TestOrderedSetIsSetUnion(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: quickValues(func(args []interface{}, r *rand.Rand) {
			mk := func() []int {
				out := make([]int, r.Intn(2*listMapThreshold))
				for i := range out {
					out[i] = r.Intn(3 * listMapThreshold)
				}
				return out
			}
			args[0] = mk()
			args[1] = mk()
		}),
	}
	prop := func(xs, ys []int) bool {
		var s orderedSet[int]
		s.AddAll(xs)
		s.AddAll(ys)
		want := map[int]struct{}{}
		for _, x := range append(append([]int(nil), xs...), ys...) {
			want[x] = struct{}{}
		}
		if s.Len() != len(want) || len(s.Slice()) != len(want) {
			return false
		}
		for x := range want {
			if !s.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("AddAll is not set union: %v", err)
	}
}

func TestOrderedSetSliceCopiesAndViewStaysValid(t *testing.T) {
	var s orderedSet[int]
	s.AddAll([]int{1, 2})
	c := s.Slice()
	c[0] = 99
	v := s.View()
	for i := 3; i <= 2*listMapThreshold; i++ {
		s.Add(i)
	}
	if s.Contains(99) || !reflect.DeepEqual(v, []int{1, 2}) {
		t.Fatalf("Slice aliases the set or View changed as it grew: view %v", v)
	}
}

// TestRandomSubsetGolden pins the truncation's random draws: scenario
// digests cannot, because no catalog scenario sets a list threshold.
// Each row draws twice from one source.
func TestRandomSubsetGolden(t *testing.T) {
	list := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tt := range []struct {
		seed        int64
		three, five []int
	}{
		{1, []int{2, 8, 10}, []int{10, 6, 9, 7, 4}},
		{2, []int{7, 8, 1}, []int{1, 4, 9, 6, 5}},
	} {
		rng := rand.New(rand.NewSource(tt.seed))
		if got := randomSubset(list, 3, rng); !reflect.DeepEqual(got, tt.three) {
			t.Fatalf("seed %d: n=3 kept %v, want %v", tt.seed, got, tt.three)
		}
		if got := randomSubset(list, 5, rng); !reflect.DeepEqual(got, tt.five) {
			t.Fatalf("seed %d: n=5 kept %v, want %v", tt.seed, got, tt.five)
		}
	}
}

// TestRandomSubsetKeepsCount: truncating a distinct list keeps exactly n
// distinct entries of it.
func TestRandomSubsetKeepsCount(t *testing.T) {
	base := []int{10, 11, 12, 13, 14}
	got := randomSubset(base, 3, rand.New(rand.NewSource(1)))
	if len(got) != 3 {
		t.Fatalf("kept %d entries, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if id < 10 || id > 14 || seen[id] {
			t.Fatalf("kept %v, want 3 distinct entries of %v", got, base)
		}
		seen[id] = true
	}
}

// TestCarriedNoOpWhenShort: a list no longer than ListMax is carried as it
// is, without drawing from the endpoint's random source.
func TestCarriedNoOpWhenShort(t *testing.T) {
	base := []int{10, 11, 12, 13, 14}
	cfg := Config[int]{PartialList: true, ListMax: 10}
	_, twin := newTestEngine(t, 0, cfg, nil) // same seed, Carried never called
	e, ep := newTestEngine(t, 0, cfg, nil)
	if got := e.Carried(base); !reflect.DeepEqual(got, base) {
		t.Fatalf("carried = %v, want %v unchanged", got, base)
	}
	if ep.Rand().Int63() != twin.Rand().Int63() {
		t.Fatal("Carried drew randomness for a list under the cap")
	}
}

// TestRandomSubsetProperty: exactly n entries are kept, none repeats, each
// comes from the input, and the input is left as it was.
func TestRandomSubsetProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: quickValues(func(args []interface{}, r *rand.Rand) {
			ids := r.Perm(40)[:r.Intn(30)] // distinct, like a flooding list
			args[0] = ids
			args[1] = r.Intn(len(ids) + 1)
			args[2] = r.Int63()
		}),
	}
	prop := func(ids []int, n int, seed int64) bool {
		in := append([]int{}, ids...)
		got := randomSubset(ids, n, rand.New(rand.NewSource(seed)))
		if len(got) != n || !reflect.DeepEqual(ids, in) {
			return false
		}
		from := map[int]bool{}
		for _, id := range ids {
			from[id] = true
		}
		for _, id := range got {
			if !from[id] {
				return false
			}
			delete(from, id) // a second copy of id now fails
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("random truncation inconsistent: %v", err)
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
