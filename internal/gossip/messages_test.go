package gossip

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// TestMessageBytesMatchWire: for every message kind, the bytes the simulator
// charges — frameBytes plus messageBytes — are exactly the bytes the live
// binary codec frames the equivalent envelope in.
func TestMessageBytesMatchWire(t *testing.T) {
	const from = 7
	w, err := store.NewWriter("peer-7", store.NewSharded(1), nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	put, del := w.Put("k", []byte("value")), w.Delete("k")
	clock := version.Clock{"peer-7": 2, "peer-12": 900}
	for _, tc := range []struct {
		name string
		m    engine.Message[int]
	}{
		{"push", engine.Message[int]{Kind: engine.KindPush, Update: put, T: 3}},
		{"push with list", engine.Message[int]{Kind: engine.KindPush, Update: del, RF: []int{0, 9, 10, 12345}, T: 200}},
		{"pull request", engine.Message[int]{Kind: engine.KindPullReq, Clock: clock}},
		{"pull response, empty", engine.Message[int]{Kind: engine.KindPullResp}},
		{"pull response, full", engine.Message[int]{Kind: engine.KindPullResp, Updates: []store.Update{put, del}, Peers: []int{3, 12}}},
		{"ack", engine.Message[int]{Kind: engine.KindAck, UpdateRef: put.Ref()}},
		{"query", engine.Message[int]{Kind: engine.KindQuery, QID: 1 << 40, Key: "k"}},
		{"query response, found", engine.Message[int]{Kind: engine.KindQueryResp, QID: 77, Key: "k",
			Found: true, Value: put.Value, Version: put.Version, Confident: true}},
		{"query response, not found", engine.Message[int]{Kind: engine.KindQueryResp, QID: 77, Key: "absent"}},
		{"snapshot chunk", engine.Message[int]{Kind: engine.KindSnapshot, Updates: []store.Update{put, del}, Stream: 300, Chunk: 4}},
		{"snapshot trailer", engine.Message[int]{Kind: engine.KindSnapshot, Updates: []store.Update{put},
			Stream: 1 << 40, Chunk: 130, Last: true, Clock: clock, Peers: []int{3, 12}}},
	} {
		if got, want := frameBytes(from)+messageBytes(tc.m, new(listSizes)), wire.EncodedSize(envelopeOf(from, tc.m)); got != want {
			t.Errorf("%s: simulator charges %dB, the codec frames %dB", tc.name, got, want)
		}
	}
}

// envelopeOf is the wire envelope the live runtime would send for m, with
// peer indices spelled as their canonical simulator addresses.
func envelopeOf(from int, m engine.Message[int]) *wire.Envelope {
	addrs := func(ids []int) []string {
		var out []string
		for _, id := range ids {
			out = append(out, fmt.Sprintf("peer-%d", id))
		}
		return out
	}
	kinds := map[engine.Kind]wire.Kind{
		engine.KindPush: wire.KindPush, engine.KindPullReq: wire.KindPullReq,
		engine.KindPullResp: wire.KindPullResp, engine.KindAck: wire.KindAck,
		engine.KindQuery: wire.KindQuery, engine.KindQueryResp: wire.KindQueryResp,
		engine.KindSnapshot: wire.KindSnapshot,
	}
	env := &wire.Envelope{
		From: fmt.Sprintf("peer-%d", from), Kind: kinds[m.Kind],
		Update: wire.FromStore(m.Update), RF: addrs(m.RF), T: m.T,
		Clock: m.Clock, KnownPeers: addrs(m.Peers),
		Stream: m.Stream, Chunk: m.Chunk, Last: m.Last,
		UpdateRef: m.UpdateRef, QID: m.QID, Key: m.Key,
		Found: m.Found, Value: m.Value, Version: m.Version, Confident: m.Confident,
	}
	for _, u := range m.Updates {
		env.Updates = append(env.Updates, wire.FromStore(u))
	}
	return env
}

// TestListSizesReuse: the cache answers every list with its own size and
// sizes a slice seen last once.
func TestListSizesReuse(t *testing.T) {
	ids := []int{1, 22, 333, 4444}
	var c listSizes
	for _, step := range []struct {
		name string
		ids  []int
	}{
		{"first list", ids[:2]},
		{"the same slice", ids[:2]},
		{"a longer view of the same array", ids},
		{"a different slice of equal length", []int{100000, 2, 3, 4}},
		{"an empty list", nil},
		{"the first list again", ids[:2]},
	} {
		if got, want := c.of(step.ids), peerListSize(step.ids); got != want {
			t.Errorf("%s: sized %dB, want %dB", step.name, got, want)
		}
	}
	// Rewriting a sized list breaks the contract on purpose: the size
	// returned is the one cached.
	before := c.of(ids[:2])
	ids[0] = 123456
	if got := c.of(ids[:2]); got != before {
		t.Errorf("the same slice re-sized: %dB, cached %dB", got, before)
	}
}
