package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// The tests below cover the two late-binding render hooks the coalescing
// senders rely on (RenderPush, RenderPullResp), the chunks AnswerPull sends
// a pull answer in, and the DeferPullRender contract: an unrendered
// pull-response intent must, when rendered later, serve exactly what the
// eager path would have.

func TestRenderPushLateBoundList(t *testing.T) {
	cfg := Config[int]{Fanout: 1, PartialList: true}
	e, _ := newTestEngine(t, 1, cfg, nil)
	e.Learn(2)
	u := publish(e, "k", []byte("v"))

	rf, ok := e.RenderPush(u.Ref())
	if !ok {
		t.Fatal("RenderPush did not recognise a freshly published update")
	}
	before := len(rf)

	// A duplicate heard from peer 3 carrying peers 4 and 5 merges into the
	// update's flooding list; a later render must ship the grown list, not
	// the one frozen at publish time.
	deliver(e, 3, Message[int]{Kind: KindPush, Update: u, RF: []int{4, 5}})
	rf, ok = e.RenderPush(u.Ref())
	if !ok {
		t.Fatal("RenderPush lost the update after a duplicate")
	}
	if len(rf) <= before {
		t.Fatalf("list did not grow after duplicate: %d -> %d entries", before, len(rf))
	}
	seen := make(map[int]bool, len(rf))
	for _, id := range rf {
		seen[id] = true
	}
	for _, want := range []int{4, 5} {
		if !seen[want] {
			t.Fatalf("rendered list %v misses %d learned from the duplicate", rf, want)
		}
	}

	// An update the engine no longer tracks still ships, with no list.
	if rf, ok := e.RenderPush(store.Ref{Origin: "nobody", Seq: 9}); ok || rf != nil {
		t.Fatalf("RenderPush of an untracked ref = %v, %v; want nil, false", rf, ok)
	}
}

func TestRenderPullRespSnapshotDecision(t *testing.T) {
	cfg := Config[int]{Fanout: 0, PullAttempts: 1, SnapshotCatchUp: 2}
	e, _ := newTestEngine(t, 1, cfg, nil)
	for _, kv := range []string{"a", "a", "a", "b", "c"} {
		publish(e, kv, []byte(kv))
	}

	// A peer missing all five updates is over the SnapshotCatchUp threshold
	// and the live state — three keys — is smaller than its gap: the live cut
	// with the responder's clock as frontier, no delta.
	updates, frontier := e.RenderPullResp(version.Clock{})
	if frontier == nil || len(updates) != 3 {
		t.Fatalf("far-behind render = %d updates, frontier %v; want the 3-entry live cut", len(updates), frontier)
	}
	if frontier.Compare(e.Store().Clock()) != version.Equal {
		t.Fatalf("cut frontier %v, want the responder's clock %v", frontier, e.Store().Clock())
	}

	// A nearly caught-up peer gets the exact missing run.
	updates, frontier = e.RenderPullResp(version.Clock{"peer-1": 4})
	if frontier != nil || len(updates) != 1 {
		t.Fatalf("near-tip render = %d updates, frontier %v; want 1 update", len(updates), frontier)
	}
	if updates[0].Key != "c" {
		t.Fatalf("missing run served %q, want the fifth publish", updates[0].Key)
	}

	// A fully caught-up peer gets an empty delta.
	updates, frontier = e.RenderPullResp(e.Store().Clock())
	if frontier != nil || len(updates) != 0 {
		t.Fatalf("caught-up render = %d updates, frontier %v; want empty delta", len(updates), frontier)
	}

	// Never the larger answer: a gap of three over the threshold whose delta
	// is complete is not replaced by a cut of the same size.
	updates, frontier = e.RenderPullResp(version.Clock{"peer-1": 2})
	if frontier != nil || len(updates) != 3 {
		t.Fatalf("over-threshold render = %d updates, frontier %v; want the 3-update delta", len(updates), frontier)
	}

	// Once compaction has dropped part of the gap the cut is the only answer,
	// whatever its size.
	e.Store().CompactLog(e.Store().Clock())
	updates, frontier = e.RenderPullResp(version.Clock{"peer-1": 1})
	if frontier == nil || len(updates) != 3 {
		t.Fatalf("compacted-gap render = %d updates, frontier %v; want the live cut", len(updates), frontier)
	}
}

// snapshotStreamOf renders from's live cut as the chunk messages a sender
// would emit.
func snapshotStreamOf(from *Engine[int]) []Message[int] {
	cut, frontier := from.Store().LiveCut()
	var out []Message[int]
	from.StreamSnapshot(cut, frontier, nil, func(m Message[int]) bool {
		out = append(out, m)
		return true
	})
	return out
}

// TestSnapshotStreamAdoption: a frontier is adopted only at the end of an
// unbroken stream, duplicates in a cut are not offered to OnApply, and a torn
// stream leaves the clock alone until the next complete one.
func TestSnapshotStreamAdoption(t *testing.T) {
	src, _ := newTestEngine(t, 1, Config[int]{}, nil)
	// Values over half a chunk: every cut entry travels in a chunk of its own.
	big := make([]byte, SnapshotChunkBytes/2+1)
	for _, k := range []string{"a", "a", "b", "b", "c"} {
		publish(src, k, big)
	}
	want := src.Store().Clock()

	var offered []store.ApplyResult
	catchUps := 0
	dst, _ := newTestEngine(t, 2, Config[int]{Hooks: Hooks[int]{
		OnApply: func(_ store.Update, res store.ApplyResult, _ Source, _ int) { offered = append(offered, res) },
	}}, nil)
	deliverCounting := func(m Message[int]) {
		if deliver(dst, 1, m) {
			catchUps++
		}
	}

	// Torn: the middle chunk never arrives, the trailer does.
	chunks := snapshotStreamOf(src)
	if len(chunks) != 3 {
		t.Fatalf("fixture cut has %d chunks, want 3", len(chunks))
	}
	deliverCounting(chunks[0])
	deliverCounting(chunks[2])
	if got := dst.Store().Clock().Get("peer-1"); got != 0 || catchUps != 0 {
		t.Fatalf("torn stream moved the clock to %d (%d catch-ups); want untouched", got, catchUps)
	}

	// Chunks of two streams do not add up to one.
	other := snapshotStreamOf(src)
	deliverCounting(other[0])
	deliverCounting(chunks[1])
	deliverCounting(other[2])
	if catchUps != 0 {
		t.Fatal("interleaved streams completed a catch-up")
	}

	// Complete: every chunk in order.
	offered = nil
	for _, m := range snapshotStreamOf(src) {
		deliverCounting(m)
	}
	if catchUps != 1 {
		t.Fatalf("complete stream fired %d catch-ups, want 1", catchUps)
	}
	if got := dst.Store().Clock(); got.Compare(want) != version.Equal {
		t.Fatalf("clock after catch-up %v, want %v", got, want)
	}
	if !dst.Store().Equal(src.Store()) {
		t.Fatal("state differs after catch-up")
	}
	// The earlier torn attempts already applied every cut entry, so the
	// complete stream carried only duplicates: none reach the hook.
	if len(offered) != 0 {
		t.Fatalf("duplicates of a cut were offered to OnApply: %v", offered)
	}
}

// TestEagerSnapshotAnswerIsOneStream: without DeferPullRender a pull request
// past the threshold is answered in place with the chunks of one stream, the
// frontier on the last.
func TestEagerSnapshotAnswerIsOneStream(t *testing.T) {
	e, ep := newTestEngine(t, 1, Config[int]{PullAttempts: 1, SnapshotCatchUp: 1}, nil)
	big := make([]byte, SnapshotChunkBytes/2)
	for _, k := range []string{"a", "a", "a", "b", "b", "b", "c", "c", "c"} {
		publish(e, k, big)
	}
	ep.sent = nil
	deliver(e, 2, Message[int]{Kind: KindPullReq, Clock: version.Clock{}})
	if len(ep.sent) < 2 {
		t.Fatalf("cut of 3 half-chunk values left in %d messages, want several chunks", len(ep.sent))
	}
	total := 0
	for i, s := range ep.sent {
		m := s.msg
		last := i == len(ep.sent)-1
		if m.Kind != KindSnapshot || m.Chunk != i || m.Stream != ep.sent[0].msg.Stream ||
			m.Last != last || (m.Clock != nil) != last {
			t.Fatalf("message %d of %d: %+v", i, len(ep.sent), m)
		}
		total += len(m.Updates)
	}
	if total != 3 {
		t.Fatalf("stream carried %d updates, want the 3-entry cut", total)
	}
}

// TestDeltaAnswerChunks is the contract of a delta answered in chunks, on
// random deltas over three origins with values up to twice a chunk: the
// chunks concatenate to RenderPullResp's run in order, each fits
// SnapshotChunkBytes or is one oversized update alone, only the last carries
// the peer sample, an undelivered chunk ends the answer, and applying the
// chunks one at a time — each leaving contiguous clocks — ends in the store,
// clock and confidence that the whole delta as one message does.
func TestDeltaAnswerChunks(t *testing.T) {
	peers := []int{7, 8}
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		src, _ := newTestEngine(t, 1, Config[int]{}, nil)
		for id := 2; id <= 3; id++ {
			o, _ := newTestEngine(t, id, Config[int]{}, nil)
			for i := rng.Intn(40); i > 0; i-- {
				publish(o, fmt.Sprintf("k%d", rng.Intn(20)), randomValue(rng))
			}
			deliver(src, id, Message[int]{Kind: KindPullResp, Updates: o.Store().MissingFor(nil)})
		}
		for i := rng.Intn(40); i > 0; i-- {
			publish(src, fmt.Sprintf("k%d", rng.Intn(20)), randomValue(rng))
		}
		all := src.Store().MissingFor(nil)
		clock := version.Clock{}
		for origin, have := range src.Store().Clock() {
			if c := uint64(rng.Int63n(int64(have) + 1)); c > 0 {
				clock[origin] = c
			}
		}
		want, frontier := src.RenderPullResp(clock)
		if frontier != nil {
			t.Fatalf("trial %d: a cut with snapshot catch-up off", trial)
		}

		var chunks []Message[int]
		src.AnswerPull(clock, peers, func(m Message[int]) bool {
			chunks = append(chunks, m)
			return true
		})
		var got []store.Update
		for i, m := range chunks {
			last := i == len(chunks)-1
			if m.Kind != KindPullResp || m.IsPullIntent() || (m.Peers != nil) != last {
				t.Fatalf("trial %d: chunk %d of %d: %+v", trial, i, len(chunks), m)
			}
			size := 0
			for _, u := range m.Updates {
				size += u.SizeBytes()
			}
			if len(m.Updates) == 0 && len(want) > 0 || size > SnapshotChunkBytes && len(m.Updates) != 1 {
				t.Fatalf("trial %d: chunk %d has %d updates of %d bytes", trial, i, len(m.Updates), size)
			}
			got = append(got, m.Updates...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: chunks carry %d updates, the delta %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Ref() != want[i].Ref() {
				t.Fatalf("trial %d: update %d is %v, want %v", trial, i, got[i].Ref(), want[i].Ref())
			}
		}

		// Two requesters at clock, both waiting to be synchronised: one
		// takes the chunks, one the whole delta.
		requester := func(id int) *Engine[int] {
			e, _ := newTestEngine(t, id, Config[int]{PullAttempts: 1, LazyPull: true}, nil)
			for _, u := range all {
				if u.Seq <= clock.Get(u.Origin) {
					deliver(e, 1, Message[int]{Kind: KindPullResp, Updates: []store.Update{u}})
				}
			}
			e.CameOnline()
			return e
		}
		chunked, whole := requester(10), requester(11)
		for i, m := range chunks {
			deliver(chunked, 1, m)
			c := chunked.Store().Clock()
			for _, u := range m.Updates {
				if c.Get(u.Origin) < u.Seq {
					t.Fatalf("trial %d: after chunk %d the clock %v does not cover %v", trial, i, c, u.Ref())
				}
			}
		}
		deliver(whole, 1, Message[int]{Kind: KindPullResp, Updates: want, Peers: peers})
		if !chunked.Store().Equal(whole.Store()) ||
			chunked.Store().Clock().Compare(whole.Store().Clock()) != version.Equal ||
			chunked.NotConfident() != whole.NotConfident() {
			t.Fatalf("trial %d: chunk by chunk (confident %v) differs from the whole delta (confident %v)",
				trial, !chunked.NotConfident(), !whole.NotConfident())
		}

		// An undelivered chunk ends the answer.
		if len(chunks) > 1 {
			stop, calls := rng.Intn(len(chunks)-1), 0
			src.AnswerPull(clock, peers, func(Message[int]) bool {
				calls++
				return calls <= stop
			})
			if calls != stop+1 {
				t.Fatalf("trial %d: send refused message %d, AnswerPull made %d calls", trial, stop, calls)
			}
		}
	}

	// An empty delta is one empty response with the peers.
	src, _ := newTestEngine(t, 1, Config[int]{}, nil)
	publish(src, "k", []byte("v"))
	var msgs []Message[int]
	src.AnswerPull(src.Store().Clock(), peers, func(m Message[int]) bool {
		msgs = append(msgs, m)
		return true
	})
	if len(msgs) != 1 || msgs[0].Kind != KindPullResp || len(msgs[0].Updates) != 0 || len(msgs[0].Peers) != 2 {
		t.Fatalf("empty delta answered with %+v, want one empty response with the peers", msgs)
	}
}

// randomValue is a value of up to twice SnapshotChunkBytes, mostly small.
func randomValue(rng *rand.Rand) []byte {
	if rng.Intn(8) == 0 {
		return make([]byte, rng.Intn(2*SnapshotChunkBytes))
	}
	return make([]byte, rng.Intn(SnapshotChunkBytes/4))
}

// TestDeferPullRenderIntentMatchesEagerPath: with DeferPullRender the engine
// answers a pull request with an intent (clock + peer gossip, no updates);
// rendering that intent later must produce the same delta the eager
// configuration would have sent immediately.
func TestDeferPullRenderIntentMatchesEagerPath(t *testing.T) {
	seed := func(e *Engine[int]) {
		publish(e, "x", []byte("1"))
		publish(e, "y", []byte("2"))
		publishDelete(e, "x")
	}
	reqClock := version.Clock{"peer-1": 1}

	eager, epEager := newTestEngine(t, 1, Config[int]{Fanout: 0, PullAttempts: 1}, nil)
	seed(eager)
	epEager.sent = nil
	deliver(eager, 2, Message[int]{Kind: KindPullReq, Clock: reqClock})
	if len(epEager.sent) != 1 || epEager.sent[0].msg.Kind != KindPullResp {
		t.Fatalf("eager path sent %+v, want one rendered pull response", epEager.sent)
	}
	want := epEager.sent[0].msg.Updates
	if len(want) == 0 {
		t.Fatal("eager response carried no updates; the fixture is broken")
	}

	deferred, epDef := newTestEngine(t, 1, Config[int]{
		Fanout: 0, PullAttempts: 1, DeferPullRender: true,
	}, nil)
	seed(deferred)
	epDef.sent = nil
	deliver(deferred, 2, Message[int]{Kind: KindPullReq, Clock: reqClock})
	if len(epDef.sent) != 1 {
		t.Fatalf("deferred path sent %d messages, want one intent", len(epDef.sent))
	}
	intent := epDef.sent[0].msg
	if intent.Kind != KindPullResp || intent.Updates != nil || intent.Clock == nil {
		t.Fatalf("deferred path sent %+v, want an unrendered intent (clock, no updates)", intent)
	}

	got, frontier := deferred.RenderPullResp(intent.Clock)
	if frontier != nil {
		t.Fatalf("rendering the intent gave a cut with frontier %v; want a delta", frontier)
	}
	if len(got) != len(want) {
		t.Fatalf("deferred render served %d updates, eager served %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ref() != want[i].Ref() {
			t.Fatalf("update %d: deferred %v, eager %v", i, got[i].Ref(), want[i].Ref())
		}
	}
}
