package engine

import "math/rand"

// peerView is the engine's membership view, organised for O(k) peer
// sampling. The backing slice is partitioned into three contiguous segments
// maintained incrementally as the §6 ack bookkeeping changes:
//
//	[0, nPref)      preferred — peers that have acked a push and are not
//	                currently suspected offline
//	[nPref, nAvail) available — everyone else the engine may push to
//	[nAvail, len)   suspended — peers suspected offline, skipped entirely
//
// A draw is a partial Fisher–Yates over a segment: k swaps and k random
// numbers, independent of the view size, yielding a uniform k-subset. Swaps
// stay within a segment, so the partition survives sampling; the order
// within a segment is arbitrary by construction.
//
// Without the ack optimisation every peer lives in the available segment and
// the view degenerates to a flat uniform sampler.
//
// pos is only the inverse of order, so a view seeded whole (seed) defers it
// to the first lookup: a peer that never looks anything up never pays for
// the map, and swap skips it while it is absent.
type peerView[ID comparable] struct {
	order  []ID
	pos    map[ID]int
	nPref  int
	nAvail int
}

// seed replaces the view with ids, all in the available segment in the
// given order, as Add would leave them one at a time on an empty view. ids
// must be distinct: a repeat panics when the index is first built.
func (v *peerView[ID]) seed(ids []ID) {
	*v = peerView[ID]{order: ids, nAvail: len(ids)}
}

// index returns pos, building it on first use.
func (v *peerView[ID]) index() map[ID]int {
	if v.pos == nil {
		v.buildIndex()
	}
	return v.pos
}

func (v *peerView[ID]) buildIndex() {
	v.pos = make(map[ID]int, len(v.order))
	for i, id := range v.order {
		if _, dup := v.pos[id]; dup {
			panic("engine: a peer id was seeded twice into the view")
		}
		v.pos[id] = i
	}
}

// Len returns the number of known peers across all segments.
func (v *peerView[ID]) Len() int { return len(v.order) }

// Contains reports whether id is in the view.
func (v *peerView[ID]) Contains(id ID) bool {
	_, ok := v.index()[id]
	return ok
}

// Slice returns a copy of the view. The order is the current partition
// order, not insertion order.
func (v *peerView[ID]) Slice() []ID {
	return append([]ID(nil), v.order...)
}

func (v *peerView[ID]) swap(i, j int) {
	if i == j {
		return
	}
	v.order[i], v.order[j] = v.order[j], v.order[i]
	if v.pos != nil {
		v.pos[v.order[i]] = i
		v.pos[v.order[j]] = j
	}
}

// Add inserts id into the available segment and reports whether it was new.
func (v *peerView[ID]) Add(id ID) bool {
	if _, ok := v.index()[id]; ok {
		return false
	}
	v.order = append(v.order, id)
	v.pos[id] = len(v.order) - 1
	// The append landed in the suspended segment; rotate it in.
	v.swap(len(v.order)-1, v.nAvail)
	v.nAvail++
	return true
}

// promote moves id into the preferred segment, from whichever segment it
// currently occupies. Unknown ids are ignored.
func (v *peerView[ID]) promote(id ID) {
	i, ok := v.index()[id]
	if !ok {
		return
	}
	if i >= v.nAvail { // suspended → available
		v.swap(i, v.nAvail)
		v.nAvail++
		i = v.pos[id]
	}
	if i >= v.nPref { // available → preferred
		v.swap(i, v.nPref)
		v.nPref++
	}
}

// suspend moves id into the suspended segment. Unknown ids are ignored.
func (v *peerView[ID]) suspend(id ID) {
	i, ok := v.index()[id]
	if !ok || i >= v.nAvail {
		return
	}
	if i < v.nPref { // preferred → available
		v.swap(i, v.nPref-1)
		v.nPref--
		i = v.pos[id]
	}
	// available → suspended
	v.swap(i, v.nAvail-1)
	v.nAvail--
}

// release moves a suspended id back to the available segment (or straight to
// preferred when it had acked before the suspicion). Non-suspended or
// unknown ids are ignored.
func (v *peerView[ID]) release(id ID, preferred bool) {
	i, ok := v.index()[id]
	if !ok || i < v.nAvail {
		return
	}
	v.swap(i, v.nAvail)
	v.nAvail++
	if preferred {
		v.promote(id)
	}
}

// drawFrom appends up to need uniformly drawn entries of order[lo:hi) to
// out, skipping the excluded id if it lies in the segment. It reorders the
// segment in place (a partial Fisher–Yates), which is harmless: segment
// membership, not order, is the invariant.
func (v *peerView[ID]) drawFrom(out []ID, need, lo, hi int, rng *rand.Rand, exclude ID, haveExclude bool) []ID {
	if haveExclude {
		if e, ok := v.index()[exclude]; ok && e >= lo && e < hi {
			v.swap(e, hi-1)
			hi--
		}
	}
	n := hi - lo
	if need > n {
		need = n
	}
	for i := 0; i < need; i++ {
		v.swap(lo+i, lo+i+rng.Intn(n-i))
		out = append(out, v.order[lo+i])
	}
	return out
}

// sampleInto appends up to k distinct peers to out: preferred peers first,
// then available ones, never suspended ones — the §6 selection rule. Each
// segment's contribution is a uniform subset of that segment.
func (v *peerView[ID]) sampleInto(out []ID, k int, rng *rand.Rand, exclude ID, haveExclude bool) []ID {
	out = v.drawFrom(out, k, 0, v.nPref, rng, exclude, haveExclude)
	if len(out) < k {
		out = v.drawFrom(out, k-len(out), v.nPref, v.nAvail, rng, exclude, haveExclude)
	}
	return out
}
