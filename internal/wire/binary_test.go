package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// binTestEnvelopes covers every kind with populated and with zero-ish
// fields.
func binTestEnvelopes(t *testing.T) []Envelope {
	t.Helper()
	u := FromStore(sampleUpdate(t))
	del := u
	del.Delete = true
	del.Value = nil
	return []Envelope{
		{Kind: KindPush, From: "127.0.0.1:9000", Update: u,
			RF: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, T: 3},
		{Kind: KindPush, From: "a", Update: del}, // no list, T=0
		{Kind: KindPullReq, From: "b", Clock: version.Clock{"x": 3, "y": 1 << 40}},
		{Kind: KindPullReq, From: "b"}, // nil clock
		{Kind: KindPullResp, From: "c", Updates: []Update{u, del},
			KnownPeers: []string{"d", ""}},
		{Kind: KindPullResp, From: "c"}, // empty response
		{Kind: KindAck, From: "d", UpdateRef: store.Ref{Origin: "origin-1", Seq: 2}},
		{Kind: KindAck, From: ""},
		{Kind: KindQuery, From: "e", QID: -1, Key: "k"},
		{Kind: KindQueryResp, From: "f", QID: 1 << 60, Key: "k", Found: true,
			Value: []byte("v"), Version: u.Version, Confident: true},
		{Kind: KindQueryResp, From: "f", QID: 0, Key: ""},
		{Kind: KindSnapshot, From: "g", Updates: []Update{u, del}, Stream: 1 << 50, Chunk: 3},
		{Kind: KindSnapshot, From: "g", Updates: []Update{del}, Stream: 7, Chunk: 4, Last: true,
			Clock: version.Clock{"x": 3, "y": 9}, KnownPeers: []string{"h", "i"}},
		{Kind: KindSnapshot, From: "g", Last: true}, // empty cut, empty frontier, no peers
	}
}

// normalizeEnvelope maps an envelope to the canonical form the binary codec
// can represent: nil and empty slices/maps collapse (both encode as count
// 0). Deep equality after normalisation is the codec's fidelity contract.
func normalizeEnvelope(env Envelope) Envelope {
	if len(env.RF) == 0 {
		env.RF = nil
	}
	if len(env.Clock) == 0 {
		env.Clock = nil
	}
	if len(env.KnownPeers) == 0 {
		env.KnownPeers = nil
	}
	if len(env.Value) == 0 {
		env.Value = nil
	}
	if len(env.Version) == 0 {
		env.Version = nil
	}
	if len(env.Updates) == 0 {
		env.Updates = nil
	} else {
		updates := make([]Update, len(env.Updates))
		copy(updates, env.Updates)
		for i := range updates {
			if len(updates[i].Value) == 0 {
				updates[i].Value = nil
			}
			if len(updates[i].Version) == 0 {
				updates[i].Version = nil
			}
		}
		env.Updates = updates
	}
	return env
}

func TestBinaryRoundTripAllKinds(t *testing.T) {
	for _, env := range binTestEnvelopes(t) {
		body, err := EncodeBinary(&env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		if got, want := len(body), EncodedSize(&env)-4; got != want {
			t.Fatalf("%s: body is %dB, EncodedSize-4 says %dB", env.Kind, got, want)
		}
		back, err := DecodeBinary(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if !reflect.DeepEqual(normalizeEnvelope(back), normalizeEnvelope(env)) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", env.Kind, back, env)
		}
		// Canonical: re-encoding the decoded envelope reproduces the bytes.
		again, err := EncodeBinary(&back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", env.Kind, err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("%s: encoding is not canonical", env.Kind)
		}
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	valid, err := EncodeBinary(&Envelope{
		Kind: KindPush, From: "a",
		Update: Update{Origin: "o", Seq: 1, Key: "k", Value: []byte("v"),
			Version: version.History{{1}}, Stamp: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              {},
		"version only":       {BinaryVersion},
		"unknown version":    {99, byte(KindPush)},
		"zero kind":          {BinaryVersion, 0},
		"unknown kind":       {BinaryVersion, 200},
		"truncated body":     valid[:len(valid)-1],
		"trailing garbage":   append(append([]byte(nil), valid...), 'x'),
		"string past end":    {BinaryVersion, byte(KindQuery), 0xFF, 0xFF, 0xFF},
		"huge history count": {BinaryVersion, byte(KindQueryResp), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, data := range cases {
		if _, err := DecodeBinary(data); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

// TestBinaryDecodeReuseIsolation: decoding a second frame into the same
// envelope must not corrupt data the first decode handed out — values and
// version histories escape into the store and must be freshly allocated
// per decode.
func TestBinaryDecodeReuseIsolation(t *testing.T) {
	mk := func(val string, seq uint64) []byte {
		body, err := EncodeBinary(&Envelope{
			Kind: KindPullResp, From: "a",
			Updates: []Update{{
				Origin: "o", Seq: seq, Key: "k", Value: []byte(val),
				Version: version.History{{byte(seq)}},
				Stamp:   time.Unix(0, 1).UnixNano(),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var env Envelope
	if err := DecodeBody(mk("first", 1), &env); err != nil {
		t.Fatal(err)
	}
	first := env.Updates[0].ToStore()
	if err := DecodeBody(mk("second", 2), &env); err != nil {
		t.Fatal(err)
	}
	if string(first.Value) != "first" {
		t.Fatalf("first decode's value corrupted by reuse: %q", first.Value)
	}
	if first.Version[0] != (version.ID{1}) {
		t.Fatal("first decode's history corrupted by reuse")
	}
	if string(env.Updates[0].Value) != "second" {
		t.Fatalf("second decode = %q", env.Updates[0].Value)
	}
}

// TestPermutedListAllocatesNoString: a push whose flooding list reorders and
// grows the previous push's reuses the previous strings, at any position.
// Value and history are empty, so the list is the only thing a decode could
// allocate.
func TestPermutedListAllocatesNoString(t *testing.T) {
	mk := func(rf ...string) []byte {
		body, err := EncodeBinary(&Envelope{
			Kind: KindPush, From: "a", Update: Update{Origin: "o", Seq: 1, Key: "k"}, RF: rf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	a, b := mk("p1", "p2", "p3"), mk("p3", "p1", "p2")
	var env Envelope
	if err := DecodeBody(a, &env); err != nil {
		t.Fatal(err)
	}
	decode := func(body []byte) {
		if err := DecodeBody(body, &env); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { decode(b); decode(a) }); n != 0 {
		t.Fatalf("decoding permuted lists allocates %v times, want 0", n)
	}
	decode(b)
	decode(mk("p2", "p4", "p3", "p1"))
	if got := fmt.Sprint(env.RF); got != "[p2 p4 p3 p1]" {
		t.Fatalf("decoded RF = %s", got)
	}
}

// TestBinaryKindCrossFields: fields belonging to other kinds are dropped by
// the codec (only the kind's payload travels), matching the engine's
// contract that only kind-relevant fields are meaningful.
func TestBinaryKindCrossFields(t *testing.T) {
	env := Envelope{Kind: KindAck, From: "a",
		UpdateRef: store.Ref{Origin: "o", Seq: 9},
		Key:       "leaks?", Value: []byte("leaks?"), T: 7}
	body, err := EncodeBinary(&env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != "" || back.Value != nil || back.T != 0 {
		t.Fatalf("non-ack fields travelled: %+v", back)
	}
	if back.UpdateRef != env.UpdateRef {
		t.Fatalf("ack ref = %+v", back.UpdateRef)
	}
}

// snapshotGoldenVectors are committed bodies of the KindSnapshot frame, written
// out by hand from the layout in binary.go — not produced by the encoder under
// test — so a change to the chunk format fails here even when encoder and
// decoder change together.
var snapshotGoldenVectors = []struct {
	name string
	body []byte
	env  Envelope
}{
	{
		name: "last chunk: one record, stream 300, chunk 2, frontier, one peer",
		body: []byte{
			0x01, 0x08, // format version, kind
			0x03, 'a', ':', '1', // from
			0x01,      // one update
			0x01, 'o', // origin
			0x05,      // seq
			0x01, 'k', // key
			0x01, 'v', // value
			0x00, // flags
			0x01, // one version id
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
			0, 0, 0, 0, 0, 0, 0, 42, // stamp
			0xac, 0x02, // stream 300
			0x02,                                   // chunk
			0x01,                                   // flags: last
			0x02, 0x01, 'o', 0x05, 0x01, 'p', 0x01, // frontier {o:5, p:1}
			0x01, 0x03, 'b', ':', '2', // peers
		},
		env: Envelope{
			Kind: KindSnapshot, From: "a:1",
			Updates: []Update{{Origin: "o", Seq: 5, Key: "k", Value: []byte("v"),
				Version: version.History{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}, Stamp: 42}},
			Stream: 300, Chunk: 2, Last: true,
			Clock:      version.Clock{"o": 5, "p": 1},
			KnownPeers: []string{"b:2"},
		},
	},
	{
		name: "first chunk: one tombstone record, no frontier, no peers",
		body: []byte{
			0x01, 0x08,
			0x03, 'a', ':', '1',
			0x01,
			0x01, 'o',
			0x09,
			0x01, 'k',
			0x00,                                           // no value
			0x01,                                           // flags: delete
			0x00,                                           // no version ids
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // stamp -1
			0x01, // stream
			0x00, // chunk
			0x00, // flags
			0x00, // no peers
		},
		env: Envelope{
			Kind: KindSnapshot, From: "a:1",
			Updates: []Update{{Origin: "o", Seq: 9, Key: "k", Delete: true, Stamp: -1}},
			Stream:  1,
		},
	},
}

func TestSnapshotGoldenVectors(t *testing.T) {
	for _, v := range snapshotGoldenVectors {
		got, err := DecodeBinary(v.body)
		if err != nil {
			t.Fatalf("%s: decode: %v", v.name, err)
		}
		if !reflect.DeepEqual(normalizeEnvelope(got), normalizeEnvelope(v.env)) {
			t.Fatalf("%s: decoded\n got %+v\nwant %+v", v.name, got, v.env)
		}
		body, err := EncodeBinary(&v.env)
		if err != nil {
			t.Fatalf("%s: encode: %v", v.name, err)
		}
		if !bytes.Equal(body, v.body) {
			t.Fatalf("%s: encoded\n got %x\nwant %x", v.name, body, v.body)
		}
	}
}

// TestSnapshotKindRefusesV1: the chunked snapshot frame took a new kind
// number instead of reusing the v1 gob-blob frame's. A v1 decoder bounds
// kinds at 7, so it rejects kind 8 as unknown before reading a byte of the
// body; this decoder refuses 7 the same way, and the encoder cannot emit it.
func TestSnapshotKindRefusesV1(t *testing.T) {
	const v1KindMax = 7
	if KindSnapshot <= v1KindMax {
		t.Fatalf("KindSnapshot = %d reuses a kind number a v1 node parses", KindSnapshot)
	}
	// What a v1 node sent: version, kind 7, from "a", blob "gob", no peers.
	v1 := []byte{0x01, 0x07, 0x01, 'a', 0x03, 'g', 'o', 'b', 0x00}
	if _, err := DecodeBinary(v1); err == nil {
		t.Fatal("a v1 snapshot frame decoded")
	}
	if _, err := EncodeBinary(&Envelope{Kind: Kind(v1KindMax), From: "a"}); err == nil {
		t.Fatal("the retired v1 snapshot kind encoded")
	}
	// Malformed chunk trailers are rejected, not guessed at.
	good := snapshotGoldenVectors[1].body
	for name, mutate := range map[string]func([]byte){
		"unknown flag bit": func(b []byte) { b[len(b)-2] = 0x02 },
		"chunk too large":  func(b []byte) { b[len(b)-3] = 0xff },
	} {
		bad := append([]byte(nil), good...)
		mutate(bad)
		if _, err := DecodeBinary(bad); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}
