package wire

import (
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

func sampleUpdate(t *testing.T) store.Update {
	t.Helper()
	st := store.NewSharded(1)
	w, err := store.NewWriter("origin-1", st,
		func() time.Time { return time.Unix(1234, 5678) },
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	w.Put("k", []byte("first"))
	return w.Put("k", []byte("second")) // history length 2
}

func TestUpdateRoundTrip(t *testing.T) {
	u := sampleUpdate(t)
	back := FromStore(u).ToStore()
	if back.ID() != u.ID() {
		t.Fatalf("id mismatch: %s vs %s", back.ID(), u.ID())
	}
	if string(back.Value) != "second" || back.Delete != u.Delete {
		t.Fatalf("payload mismatch: %+v", back)
	}
	if back.Version.Compare(u.Version) != version.Equal {
		t.Fatalf("version mismatch: %s vs %s", back.Version, u.Version)
	}
	if !back.Stamp.Equal(u.Stamp) {
		t.Fatalf("stamp mismatch: %v vs %v", back.Stamp, u.Stamp)
	}
}

// TestFromStoreIsolatesValue pins the ownership contract: the wire form's
// value is independent of the store's immutable log entry (the history may
// alias — it is append-only and never mutated in place).
func TestFromStoreIsolatesValue(t *testing.T) {
	u := sampleUpdate(t)
	wu := FromStore(u)
	wu.Value[0] = 'X'
	if u.Value[0] == 'X' {
		t.Fatal("FromStore aliases the source value")
	}
}

func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	u := FromStore(sampleUpdate(t))
	envs := []Envelope{
		{Kind: KindPush, From: "a", Update: u, RF: []string{"a", "b"}, T: 4},
		{Kind: KindPullReq, From: "b", Clock: version.Clock{"x": 3}},
		{Kind: KindPullResp, From: "c", Updates: []Update{u, u}, KnownPeers: []string{"d"}},
		{Kind: KindAck, From: "d", UpdateRef: store.Ref{Origin: "origin-1", Seq: 2}},
		{Kind: KindQuery, From: "e", QID: -9, Key: "k"},
		{Kind: KindQueryResp, From: "f", QID: -9, Key: "k", Found: true,
			Value: []byte("v"), Version: u.Version, Confident: true},
		{Kind: KindSnapshot, From: "g", Updates: []Update{u}, Stream: 9, Chunk: 1, Last: true,
			Clock: version.Clock{"x": 3}, KnownPeers: []string{"h"}},
	}
	for _, env := range envs {
		// The gob compat codec round-trips.
		raw, err := Encode(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		back, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if back.Kind != env.Kind || back.From != env.From {
			t.Fatalf("%s: header mismatch: %+v", env.Kind, back)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := Decode([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPush: "push", KindPullReq: "pull-req",
		KindPullResp: "pull-resp", KindAck: "ack",
		KindQuery: "query", KindQueryResp: "query-resp",
		KindSnapshot: "snapshot",
	} {
		if got := k.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Fatalf("unknown kind = %q", got)
	}
}
