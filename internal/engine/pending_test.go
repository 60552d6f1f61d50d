package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// The merge rules of the coalescing senders, tested once for both adapters:
// the live runtime instantiates Pending over string addresses, the simulator
// over int peer indices.

// pendingWriter returns a writer over a scratch store, for building updates
// whose versions extend (same writer) or fork (different writers) each other.
func pendingWriter(t testing.TB, origin string) *store.Writer {
	t.Helper()
	w, err := store.NewWriter(origin, store.NewSharded(1), time.Now, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

func pushOf[ID comparable](u store.Update, t int) Message[ID] {
	return Message[ID]{Kind: KindPush, Update: u, T: t}
}

// drain pops everything.
func drain[ID comparable](p *Pending[ID]) []Message[ID] {
	var out []Message[ID]
	for m, ok := p.Pop(); ok; m, ok = p.Pop() {
		out = append(out, m)
	}
	return out
}

// bothIDs runs a test for the two instantiations in use; a and b are two
// distinct sample identities.
func bothIDs(t *testing.T, str func(t *testing.T, a, b string), num func(t *testing.T, a, b int)) {
	t.Run("string", func(t *testing.T) { str(t, "10.0.0.1:7400", "10.0.0.2:7400") })
	t.Run("int", func(t *testing.T) { num(t, 1, 2) })
}

func TestPendingPushCoalescing(t *testing.T) {
	bothIDs(t, testPendingPushCoalescing[string], testPendingPushCoalescing[int])
}

func testPendingPushCoalescing[ID comparable](t *testing.T, a, _ ID) {
	w := pendingWriter(t, "w")
	v1 := w.Put("k", []byte("one"))
	v2 := w.Put("k", []byte("two")) // dominates v1
	other := w.Put("other", []byte("x"))
	fork := pendingWriter(t, "f").Put("k", []byte("fork")) // concurrent with v1 and v2

	var p Pending[ID]
	if c, _, d := p.Add(pushOf[ID](v1, 1)); c != 0 || d != v1.SizeBytes()+pendingRefBytes {
		t.Fatalf("first deposit coalesced %d, delta %d", c, d)
	}
	if c, _, _ := p.Add(pushOf[ID](other, 1)); c != 0 {
		t.Fatalf("unrelated key coalesced %d", c)
	}
	// The newer version displaces the pending dominated one.
	if c, _, d := p.Add(pushOf[ID](v2, 2)); c != 1 || d != v2.SizeBytes()-v1.SizeBytes()+pendingRefBytes {
		t.Fatalf("displacing deposit coalesced %d, delta %d", c, d)
	}
	// A dominated version arriving late is absorbed without growing state.
	if c, _, d := p.Add(pushOf[ID](v1, 3)); c != 1 || d != 0 {
		t.Fatalf("absorbed deposit coalesced %d, delta %d", c, d)
	}
	// Same ref again only refreshes the round counter; the flooding list of
	// the deposit is not kept — it is rendered when the push leaves.
	again := pushOf[ID](v2, 9)
	again.RF = []ID{a}
	if c, _, d := p.Add(again); c != 1 || d != 0 {
		t.Fatalf("same-ref deposit coalesced %d, delta %d", c, d)
	}
	// A concurrent branch of the key coexists with v2.
	if c, _, _ := p.Add(pushOf[ID](fork, 1)); c != 0 {
		t.Fatalf("concurrent branch coalesced %d", c)
	}
	if p.Len() != 3 {
		t.Fatalf("%d items pending, want v2, other and the fork", p.Len())
	}
	if want := v2.SizeBytes() + other.SizeBytes() + fork.SizeBytes() + 4*pendingRefBytes; p.Bytes() != want {
		t.Fatalf("tracked %dB, want %dB", p.Bytes(), want)
	}
	got := drain(&p)
	if len(got) != 3 || got[0].Update.Ref() != other.Ref() || got[1].Update.Ref() != v2.Ref() ||
		got[2].Update.Ref() != fork.Ref() {
		t.Fatalf("drained %+v; want other, v2, fork in first-deposit order", got)
	}
	if got[1].T != 9 || got[1].RF != nil {
		t.Fatalf("v2 left with round %d, list %v; want the refreshed round 9 and no list", got[1].T, got[1].RF)
	}
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Fatalf("after a full drain %d items, %dB remain", p.Len(), p.Bytes())
	}
}

func TestPendingPullIntentMerge(t *testing.T) {
	bothIDs(t, testPendingPullIntentMerge[string], testPendingPullIntentMerge[int])
}

func testPendingPullIntentMerge[ID comparable](t *testing.T, a, b ID) {
	intent := func(c version.Clock, peer ID) Message[ID] {
		return Message[ID]{Kind: KindPullResp, Clock: c, Peers: []ID{peer}}
	}
	var p Pending[ID]
	if c, _, _ := p.Add(intent(version.Clock{"a": 5, "b": 3}, a)); c != 0 {
		t.Fatalf("first pull answer coalesced %d", c)
	}
	// Merging takes the pointwise minimum; an origin missing from either
	// side counts as zero and drops out. The peer sample is the newest one.
	if c, _, _ := p.Add(intent(version.Clock{"a": 2, "c": 9}, b)); c != 1 {
		t.Fatalf("second pull answer coalesced %d", c)
	}
	// Idempotent classes dedup too.
	if c, _, _ := p.Add(Message[ID]{Kind: KindPullReq}); c != 0 {
		t.Fatalf("first pull request coalesced %d", c)
	}
	if c, _, d := p.Add(Message[ID]{Kind: KindPullReq, Clock: version.Clock{"a": 1}}); c != 1 || d != 0 {
		t.Fatalf("repeat pull request coalesced %d, delta %d", c, d)
	}
	ref := store.Ref{Origin: "o", Seq: 1}
	if c, _, _ := p.Add(Message[ID]{Kind: KindAck, UpdateRef: ref}); c != 0 {
		t.Fatalf("first ack coalesced %d", c)
	}
	if c, _, d := p.Add(Message[ID]{Kind: KindAck, UpdateRef: ref}); c != 1 || d != 0 {
		t.Fatalf("repeat ack coalesced %d, delta %d", c, d)
	}
	// A pull response that is already rendered cannot merge: it waits as is.
	rendered := Message[ID]{Kind: KindPullResp, Updates: []store.Update{}, Peers: []ID{a}}
	if c, _, _ := p.Add(rendered); c != 0 {
		t.Fatalf("rendered pull response coalesced %d", c)
	}
	if p.Len() != 4 {
		t.Fatalf("%d items pending, want ack, request, intent and the rendered response", p.Len())
	}

	got := drain(&p)
	if len(got) != 4 || got[0].Kind != KindAck || got[0].UpdateRef != ref ||
		got[1].Kind != KindPullReq || got[1].Clock != nil ||
		!got[2].IsPullIntent() || got[3].Kind != KindPullResp || got[3].IsPullIntent() {
		t.Fatalf("drained %+v; want ack, clockless pull request, intent, rendered response", got)
	}
	if c := got[2].Clock; len(c) != 1 || c["a"] != 2 {
		t.Fatalf("merged clock %v, want {a:2}", c)
	}
	if peers := got[2].Peers; len(peers) != 1 || peers[0] != b {
		t.Fatalf("merged peers %v, want the newest sample", peers)
	}
	if p.Bytes() != 0 {
		t.Fatalf("%dB tracked after a full drain", p.Bytes())
	}
}

func TestPendingAuxCap(t *testing.T) {
	var p Pending[string]
	dropped := 0
	for i := 0; i < MaxPendingAux+7; i++ {
		_, d, _ := p.Add(Message[string]{Kind: KindQuery, Key: fmt.Sprintf("q-%d", i)})
		dropped += d
	}
	if dropped != 7 {
		t.Fatalf("%d queries dropped, want 7 beyond the cap", dropped)
	}
	if p.Len() != MaxPendingAux {
		t.Fatalf("%d queries pending, want the cap %d", p.Len(), MaxPendingAux)
	}
	// Oldest dropped first: the survivors start at q-7.
	if m, _ := p.Pop(); m.Key != "q-7" {
		t.Fatalf("oldest surviving query %q, want q-7", m.Key)
	}
}

// TestPendingOrderIndexBounded: behind a link that never drains, a hot key
// overwritten n times must leave pending state — the push order index
// included — independent of n, and the push that finally leaves must be the
// newest version.
func TestPendingOrderIndexBounded(t *testing.T) {
	for _, n := range []int{100, 2000} {
		w := pendingWriter(t, "w")
		var p Pending[int]
		var last store.Update
		sum := 0
		for i := 0; i < n; i++ {
			last = w.Put("hot", []byte("v"))
			_, _, d := p.Add(pushOf[int](last, 0))
			sum += d
		}
		if sum != p.Bytes() {
			t.Fatalf("n=%d: deltas sum to %dB, Bytes reports %dB", n, sum, p.Bytes())
		}
		if got, bound := p.order.len(), 2+pendingOrderSlack; got > bound {
			t.Fatalf("n=%d: order index holds %d refs for one live push, want at most %d", n, got, bound)
		}
		if bound := last.SizeBytes() + (2+pendingOrderSlack)*pendingRefBytes; p.Bytes() > bound {
			t.Fatalf("n=%d: %dB pending for one live push, want at most %dB", n, p.Bytes(), bound)
		}
		if p.Len() != 1 {
			t.Fatalf("n=%d: Len %d, want 1 distinct pending item", n, p.Len())
		}
		if got := drain(&p); len(got) != 1 || got[0].Update.Ref() != last.Ref() {
			t.Fatalf("n=%d: drained %+v, want only the newest version %v", n, got, last.Ref())
		}
	}
}

// TestPendingRedepositAllocatesNothing gates the steady state of a busy
// link: a push that is already pending merges without touching the heap, and
// so does a first deposit into a Pending that was Reset after a batch.
func TestPendingRedepositAllocatesNothing(t *testing.T) {
	var p Pending[string]
	m := pushOf[string](pendingWriter(t, "w").Put("k", []byte("v")), 1)
	p.Add(m)
	if n := testing.AllocsPerRun(200, func() { p.Add(m) }); n != 0 {
		t.Fatalf("re-depositing a pending ref allocates %v times, want 0", n)
	}
	if raceEnabled {
		return // allocation counts differ under -race
	}
	if n := testing.AllocsPerRun(200, func() { p.Reset(); p.Add(m) }); n != 0 {
		t.Fatalf("a first deposit after Reset allocates %v times, want 0", n)
	}
}

// TestPendingProperty drives seeded random deposit sequences, interleaved
// with budgeted partial drains the way the simulator's throttled links do,
// against a reference model of what is owed: every deposited version of a
// key is dominated by a push that leaves afterwards, each pull answer that
// leaves carries exactly the pointwise minimum of the clocks merged into it
// (an absent origin counting as zero), acks leave once per distinct ref,
// unmergeable messages leave in order with overflow beyond the cap reported
// dropped, and the byte estimate returns to zero.
func TestPendingProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		testPendingProperty(t, seed)
	}
}

func testPendingProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	writers := []*store.Writer{pendingWriter(t, "w0"), pendingWriter(t, "w1"), pendingWriter(t, "w2")}
	origins := []string{"w0", "w1", "w2", "w3"}
	var made []store.Update

	var p Pending[int]
	owedPush := make(map[string][]version.History) // key → deposited versions no drained push covers yet
	owedAcks := make(map[store.Ref]bool)
	var owedClock version.Clock // nil: no pull answer owed
	owedReq := false
	var owedAux []int64 // QIDs in arrival order
	dropped := 0

	pop := func() bool {
		m, ok := p.Pop()
		if !ok {
			return false
		}
		switch {
		case m.Kind == KindPush:
			kept := owedPush[m.Update.Key][:0]
			for _, v := range owedPush[m.Update.Key] {
				if !m.Update.Version.Dominates(v) {
					kept = append(kept, v)
				}
			}
			owedPush[m.Update.Key] = kept
		case m.Kind == KindAck:
			if !owedAcks[m.UpdateRef] {
				t.Fatalf("seed %d: ack %v left twice or was never deposited", seed, m.UpdateRef)
			}
			delete(owedAcks, m.UpdateRef)
		case m.Kind == KindPullReq:
			if !owedReq {
				t.Fatalf("seed %d: a pull request left that nobody owed", seed)
			}
			owedReq = false
		case m.IsPullIntent():
			if owedClock == nil || owedClock.Compare(m.Clock) != version.Equal {
				t.Fatalf("seed %d: pull answer left with clock %v, want the minimum %v", seed, m.Clock, owedClock)
			}
			owedClock = nil
		default:
			if len(owedAux) == 0 || owedAux[0] != m.QID {
				t.Fatalf("seed %d: query %d left out of order (owed %v...)", seed, m.QID, owedAux[:min(3, len(owedAux))])
			}
			owedAux = owedAux[1:]
		}
		return true
	}

	for step := 0; step < 8000; step++ {
		var m Message[int]
		switch r := rng.Intn(100); {
		case r < 45: // a push: usually fresh, sometimes a re-deposit of an older one
			if len(made) == 0 || rng.Intn(3) > 0 {
				w := writers[rng.Intn(len(writers))]
				key := fmt.Sprintf("k%d", rng.Intn(4))
				if rng.Intn(8) == 0 {
					made = append(made, w.Delete(key))
				} else {
					made = append(made, w.Put(key, []byte("v")))
				}
			}
			u := made[len(made)-1]
			if rng.Intn(3) == 0 {
				u = made[rng.Intn(len(made))]
			}
			m = pushOf[int](u, rng.Intn(5))
			owedPush[u.Key] = append(owedPush[u.Key], u.Version)
		case r < 60:
			m = Message[int]{Kind: KindAck, UpdateRef: store.Ref{Origin: origins[rng.Intn(3)], Seq: uint64(rng.Intn(6))}}
			owedAcks[m.UpdateRef] = true
		case r < 65:
			m = Message[int]{Kind: KindPullReq}
			owedReq = true
		case r < 75:
			clock := version.NewClock()
			for _, o := range origins {
				if rng.Intn(4) > 0 {
					clock[o] = uint64(1 + rng.Intn(9))
				}
			}
			if owedClock == nil {
				owedClock = clock.Clone()
			} else {
				for o, have := range owedClock {
					if c := clock.Get(o); c == 0 {
						delete(owedClock, o)
					} else if c < have {
						owedClock[o] = c
					}
				}
			}
			m = Message[int]{Kind: KindPullResp, Clock: clock, Peers: []int{step}}
		case r < 99:
			m = Message[int]{Kind: KindQuery, QID: int64(step), Key: "q"}
			owedAux = append(owedAux, m.QID)
		default: // a budgeted partial drain
			for budget := rng.Intn(40); budget > 0 && pop(); budget-- {
			}
			continue
		}
		_, d, _ := p.Add(m)
		if d > 0 {
			dropped += d
			owedAux = owedAux[d:]
		}
		if len(owedAux) > MaxPendingAux {
			t.Fatalf("seed %d: %d unmergeable messages pending without a drop reported", seed, len(owedAux))
		}
		want := len(owedAcks) + len(owedAux)
		if owedReq {
			want++
		}
		if owedClock != nil {
			want++
		}
		if got := p.Len() - len(p.pushes); got != want {
			t.Fatalf("seed %d step %d: Len counts %d non-push items, the model owes %d", seed, step, got, want)
		}
		if p.order.len() > 2*len(p.pushes)+pendingOrderSlack {
			t.Fatalf("seed %d: order index %d for %d live pushes", seed, p.order.len(), len(p.pushes))
		}
	}
	for pop() {
	}
	for key, owed := range owedPush {
		if len(owed) > 0 {
			t.Fatalf("seed %d: key %s: %d deposited versions no drained push dominates", seed, key, len(owed))
		}
	}
	if len(owedAcks) > 0 || owedReq || owedClock != nil || len(owedAux) > 0 {
		t.Fatalf("seed %d: a full drain left acks %v, request %v, clock %v, %d queries owed",
			seed, owedAcks, owedReq, owedClock, len(owedAux))
	}
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Fatalf("seed %d: after a full drain %d items, %dB remain", seed, p.Len(), p.Bytes())
	}
	if dropped == 0 {
		t.Fatalf("seed %d never overflowed the cap; the drop rule went untested", seed)
	}
}
