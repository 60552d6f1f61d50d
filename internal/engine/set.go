package engine

import "math/rand"

// listMapThreshold is the length past which an orderedSet indexes its entries
// in a map; shorter lists scan linearly and allocate nothing but the slice.
const listMapThreshold = 16

// orderedSet is an insertion-ordered set of peer IDs backing the per-update
// flooding list R_f, generic over the adapter's peer identity (int indices in
// the simulator, string addresses in the live runtime). The zero value is an
// empty set.
type orderedSet[ID comparable] struct {
	order []ID
	seen  map[ID]struct{} // nil until the set outgrows listMapThreshold
}

func (s *orderedSet[ID]) Len() int { return len(s.order) }

func (s *orderedSet[ID]) Contains(id ID) bool {
	if s.seen != nil {
		_, ok := s.seen[id]
		return ok
	}
	for _, have := range s.order {
		if have == id {
			return true
		}
	}
	return false
}

// Add inserts id if absent and reports whether it was inserted.
func (s *orderedSet[ID]) Add(id ID) bool {
	if s.Contains(id) {
		return false
	}
	s.order = append(s.order, id)
	if s.seen != nil {
		s.seen[id] = struct{}{}
	} else if len(s.order) > listMapThreshold {
		s.seen = make(map[ID]struct{}, 2*len(s.order))
		for _, have := range s.order {
			s.seen[have] = struct{}{}
		}
	}
	return true
}

// AddAll inserts every id in ids, returning the number inserted.
func (s *orderedSet[ID]) AddAll(ids []ID) int {
	n := 0
	for _, id := range ids {
		if s.Add(id) {
			n++
		}
	}
	return n
}

// reset empties the set; the slice keeps its array, the index goes.
func (s *orderedSet[ID]) reset() { s.order, s.seen = s.order[:0], nil }

// moveTo fills dst, an empty set, with s's entries: the slice is copied and
// the index, if any, moves.
func (s *orderedSet[ID]) moveTo(dst *orderedSet[ID]) {
	dst.order = append(dst.order, s.order...)
	dst.seen, s.seen = s.seen, nil
}

// Slice returns a copy of the entries in insertion order.
func (s *orderedSet[ID]) Slice() []ID {
	return append([]ID(nil), s.order...)
}

// View returns the entries in insertion order without copying. The returned
// slice is capacity-clamped and the set only ever appends — existing entries
// are never reordered or rewritten — so the view stays valid (and stays at
// its length) while the set keeps growing. Callers must not mutate it.
func (s *orderedSet[ID]) View() []ID {
	return s.order[:len(s.order):len(s.order)]
}

// randomSubset returns a new slice holding n entries of list drawn uniformly
// at random — the §4.2 truncation of a carried list longer than L_thr·R. A
// partial Fisher–Yates makes n draws instead of shuffling the (much longer)
// input, which is left unmodified. n must not exceed len(list).
func randomSubset[T any](list []T, n int, rng *rand.Rand) []T {
	out := append([]T(nil), list...)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(out)-i)
		out[i], out[j] = out[j], out[i]
	}
	return out[:n]
}
