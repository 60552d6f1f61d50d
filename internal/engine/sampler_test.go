package engine

// Tests for the O(k) partitioned peer sampler: uniformity of the steady
// path, the §6 preferred/suspect behaviour under acks, the exclude-one fast
// path, the empty-sample edges, the stable ordering of the ack-bookkeeping
// accessors, and the partition invariants of peerView under randomised
// operation sequences.

import (
	"math/rand"
	"testing"
)

// countSamples draws k peers `rounds` times and tallies per-peer frequency.
func countSamples(e *Engine[int], k, rounds int) map[int]int {
	freq := make(map[int]int)
	for i := 0; i < rounds; i++ {
		for _, id := range e.SamplePeers(k) {
			freq[id]++
		}
	}
	return freq
}

// TestSampleNearUniformWithoutAcks pins the sampler's core distribution
// guarantee: without ack preferences every known peer must be drawn with
// frequency close to rounds·k/n. The partial Fisher–Yates persistently
// reorders the view, so this also catches any bias such reordering could
// introduce across correlated draws.
func TestSampleNearUniformWithoutAcks(t *testing.T) {
	const n, k, rounds = 30, 5, 20000
	e, _ := newTestEngine(t, 0, Config[int]{Fanout: float64(k)}, nil)
	for i := 1; i <= n; i++ {
		e.Learn(i)
	}
	freq := countSamples(e, k, rounds)
	if len(freq) != n {
		t.Fatalf("only %d of %d peers ever sampled", len(freq), n)
	}
	expected := float64(rounds) * k / n
	for id, got := range freq {
		if ratio := float64(got) / expected; ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("peer %d drawn %d times, expected ≈%.0f (ratio %.3f)",
				id, got, expected, ratio)
		}
	}
	// Every draw must contain k distinct peers.
	if got := e.SamplePeers(k); len(got) != k {
		t.Fatalf("sample size %d, want %d", len(got), k)
	}
}

// TestSamplePrefersAckedAndSkipsSuspects pins the §6 behaviour on the
// partitioned view: acked peers fill the sample first (uniformly among
// themselves), suspects are never drawn, and expiry re-admits them.
func TestSamplePrefersAckedAndSkipsSuspects(t *testing.T) {
	const n = 24
	cfg := Config[int]{Fanout: 4, Acks: true, AckTimeout: 1 << 40, SuspectTTL: 100}
	e, ep := newTestEngine(t, 0, cfg, nil)
	for i := 1; i <= n; i++ {
		e.Learn(i)
	}
	acked := map[int]bool{3: true, 7: true, 11: true, 15: true, 19: true, 23: true}
	for id := range acked {
		deliver(e, id, Message[int]{Kind: KindAck})
	}
	for _, s := range []int{2, 4, 6} {
		e.suspect(s, 0)
	}

	// k below the acked count: samples must be acked-only and near-uniform
	// among the acked.
	const k, rounds = 3, 12000
	freq := countSamples(e, k, rounds)
	for id := range freq {
		if !acked[id] {
			t.Fatalf("peer %d sampled ahead of acked peers", id)
		}
	}
	expected := float64(rounds) * k / float64(len(acked))
	for id := range acked {
		got := freq[id]
		if ratio := float64(got) / expected; ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("acked peer %d drawn %d times, expected ≈%.0f", id, got, expected)
		}
	}

	// k above the acked count: all acked appear, suspects still never do.
	full := e.SamplePeers(n)
	seen := map[int]bool{}
	for _, id := range full {
		seen[id] = true
	}
	for id := range acked {
		if !seen[id] {
			t.Fatalf("acked peer %d missing from large sample %v", id, full)
		}
	}
	for _, s := range []int{2, 4, 6} {
		if seen[s] {
			t.Fatalf("suspect %d sampled before expiry", s)
		}
	}
	if want := n - 3; len(full) != want {
		t.Fatalf("large sample has %d peers, want %d", len(full), want)
	}

	// After the TTL the suspects are re-admitted.
	ep.now = 101
	e.Sweep()
	full = e.SamplePeers(n)
	if len(full) != n {
		t.Fatalf("after expiry sample has %d peers, want %d", len(full), n)
	}
}

// TestLearnSkipsSelfAndDuplicates: the membership view never holds the
// engine's own identity, and learning a known peer again is a no-op.
func TestLearnSkipsSelfAndDuplicates(t *testing.T) {
	e, _ := newTestEngine(t, 5, Config[int]{Fanout: 1}, nil)
	if e.Learn(5) {
		t.Fatal("view learned itself")
	}
	if !e.Learn(1) || e.Learn(1) {
		t.Fatal("Learn dedup broken")
	}
	for _, id := range []int{1, 2, 3, 5} {
		e.Learn(id)
	}
	if got := e.KnownPeers(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("KnownPeers = %v, want [1 2 3]", got)
	}
}

// TestSampleEdgeCases: an empty view or k = 0 samples nothing, and so does
// a view whose only peer is excluded.
func TestSampleEdgeCases(t *testing.T) {
	e, _ := newTestEngine(t, 0, Config[int]{Fanout: 1}, nil)
	if got := e.SamplePeers(3); got != nil {
		t.Fatalf("sample of empty view = %v", got)
	}
	e.Learn(1)
	if got := e.SamplePeers(0); got != nil {
		t.Fatalf("sample k=0 = %v", got)
	}
	out := e.sampleExcluding(3, 1)
	if len(out) != 0 {
		t.Fatalf("fully excluded sample = %v", out)
	}
	e.releaseScratch(out)
}

// TestSampleExcludingOmitsPeer pins the exclude-one fast path used by pull
// responses: the requester must never be gossiped back to itself, whichever
// segment it occupies.
func TestSampleExcludingOmitsPeer(t *testing.T) {
	cfg := Config[int]{Fanout: 4, Acks: true, AckTimeout: 1 << 40, SuspectTTL: 1 << 40}
	e, _ := newTestEngine(t, 0, cfg, nil)
	for i := 1; i <= 10; i++ {
		e.Learn(i)
	}
	deliver(e, 5, Message[int]{Kind: KindAck}) // excluded peer in the preferred segment
	for trial := 0; trial < 500; trial++ {
		out := e.sampleExcluding(10, 5)
		if len(out) != 9 {
			t.Fatalf("sample = %v, want all but 5", out)
		}
		for _, id := range out {
			if id == 5 {
				t.Fatalf("excluded peer sampled: %v", out)
			}
		}
		e.releaseScratch(out)
	}
}

// TestAckBookkeepingStableOrder pins the insertion-ordered accessors: map
// iteration used to make Suspects/Acked/AwaitingAck orders random per run.
func TestAckBookkeepingStableOrder(t *testing.T) {
	cfg := Config[int]{Fanout: 3, Acks: true, AckTimeout: 10, SuspectTTL: 1 << 40}
	e, ep := newTestEngine(t, 0, cfg, nil)
	for i := 1; i <= 8; i++ {
		e.Learn(i)
	}
	for _, id := range []int{6, 2, 8} {
		deliver(e, id, Message[int]{Kind: KindAck})
	}
	if got := e.Acked(); len(got) != 3 || got[0] != 6 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("Acked = %v, want first-ack order [6 2 8]", got)
	}

	u := testUpdate(t, "peer-1", 1, "k", "v")
	deliver(e, 1, Message[int]{Kind: KindPush, Update: u, T: 0})
	await := e.AwaitingAck()
	if len(await) == 0 {
		t.Fatal("no ack expectations after forwarding")
	}
	// Stable: repeated reads agree.
	for trial := 0; trial < 5; trial++ {
		again := e.AwaitingAck()
		if len(again) != len(await) {
			t.Fatalf("AwaitingAck changed: %v vs %v", again, await)
		}
		for i := range again {
			if again[i] != await[i] {
				t.Fatalf("AwaitingAck order unstable: %v vs %v", again, await)
			}
		}
	}

	ep.now = 20
	e.Sweep()
	suspects := e.Suspects()
	if len(suspects) != len(await) {
		t.Fatalf("suspects %v, want the %d timed-out peers %v", suspects, len(await), await)
	}
	// Suspicion order is the await-creation order.
	for i := range suspects {
		if suspects[i] != await[i] {
			t.Fatalf("Suspects = %v, want creation order %v", suspects, await)
		}
	}
}

// checkViewInvariants asserts the peerView partition is internally
// consistent: pos mirrors order, segment bounds are sane, and every peer is
// in the segment its engine state demands.
func checkViewInvariants(t *testing.T, e *Engine[int]) {
	t.Helper()
	v := e.view
	if v.nPref < 0 || v.nPref > v.nAvail || v.nAvail > len(v.order) {
		t.Fatalf("segment bounds broken: nPref=%d nAvail=%d len=%d", v.nPref, v.nAvail, len(v.order))
	}
	if len(v.pos) != len(v.order) {
		t.Fatalf("pos has %d entries, order %d", len(v.pos), len(v.order))
	}
	for i, id := range v.order {
		if v.pos[id] != i {
			t.Fatalf("pos[%d] = %d, order says %d", id, v.pos[id], i)
		}
		_, suspected := e.suspects[id]
		_, acked := e.ackedBy[id]
		switch {
		case i < v.nPref: // preferred: acked and not suspected
			if !acked || suspected {
				t.Fatalf("peer %d preferred but acked=%v suspected=%v", id, acked, suspected)
			}
		case i < v.nAvail: // available: not suspected
			if suspected {
				t.Fatalf("peer %d available but suspected", id)
			}
			if acked {
				t.Fatalf("peer %d available but acked (should be preferred)", id)
			}
		default: // suspended: suspected
			if !suspected {
				t.Fatalf("peer %d suspended but not suspected", id)
			}
		}
	}
}

// TestPeerViewInvariantsUnderRandomOps drives the engine's ack state machine
// with a random mix of learns, acks, suspicions, expiries, and samples, and
// checks the partition invariants after every step.
func TestPeerViewInvariantsUnderRandomOps(t *testing.T) {
	cfg := Config[int]{Fanout: 3, Acks: true, AckTimeout: 1 << 40, SuspectTTL: 50}
	e, ep := newTestEngine(t, 0, cfg, nil)
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 3000; step++ {
		peer := rng.Intn(40) + 1
		switch rng.Intn(5) {
		case 0:
			e.Learn(peer)
		case 1:
			deliver(e, peer, Message[int]{Kind: KindAck})
		case 2:
			if _, already := e.suspects[peer]; !already {
				e.suspect(peer, ep.now)
			}
		case 3:
			ep.now += int64(rng.Intn(30))
			e.Sweep()
		case 4:
			out := e.sampleExcluding(rng.Intn(8)+1, peer)
			for _, id := range out {
				if id == peer {
					t.Fatalf("step %d: excluded peer %d sampled", step, peer)
				}
				if _, suspected := e.suspects[id]; suspected {
					t.Fatalf("step %d: suspect %d sampled", step, id)
				}
			}
			e.releaseScratch(out)
		}
		checkViewInvariants(t, e)
	}
}

// TestPeerViewSampleExcluding: with half the view excluded, a sample asking
// for more than is left returns exactly the rest, and a smaller sample holds
// distinct peers.
func TestPeerViewSampleExcluding(t *testing.T) {
	e, _ := newTestEngine(t, 0, Config[int]{Fanout: 1}, nil)
	for i := 1; i <= 10; i++ {
		e.Learn(i)
	}
	exclude := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	for id := range exclude {
		e.view.suspend(id)
	}
	got := e.SamplePeers(10)
	if len(got) != 5 {
		t.Fatalf("sample size = %d, want 5", len(got))
	}
	for _, id := range got {
		if exclude[id] {
			t.Fatalf("sample contains excluded id %d", id)
		}
	}
	for id := range exclude {
		e.view.release(id, false)
	}
	got = e.SamplePeers(4)
	if len(got) != 4 {
		t.Fatalf("sample size = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("sample has duplicate %d", id)
		}
		seen[id] = true
	}
}

// TestPeerViewSampleUniformity: each of 5 peers appears in roughly a fifth
// of 1-peer samples.
func TestPeerViewSampleUniformity(t *testing.T) {
	e, _ := newTestEngine(t, 0, Config[int]{Fanout: 1}, nil)
	for i := 1; i <= 5; i++ {
		e.Learn(i)
	}
	const trials = 5000
	counts := countSamples(e, 1, trials)
	if len(counts) != 5 {
		t.Fatalf("only %d of 5 peers ever sampled", len(counts))
	}
	for id, c := range counts {
		if frac := float64(c) / trials; frac < 0.15 || frac > 0.25 {
			t.Fatalf("peer %d sampled with frequency %.3f, want ≈ 0.2", id, frac)
		}
	}
}
