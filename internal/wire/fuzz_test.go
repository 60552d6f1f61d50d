package wire

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// FuzzDecode ensures the gob compat decoder never panics and that every
// successfully decoded envelope re-encodes.
func FuzzDecode(f *testing.F) {
	seedEnvs := []Envelope{
		{Kind: KindPush, From: "a:1", RF: []string{"x", "y"}, T: 3},
		{Kind: KindPullReq, From: "b:2", Clock: version.Clock{"o": 9}},
		{Kind: KindAck, From: "c:3", UpdateRef: store.Ref{Origin: "o", Seq: 9}},
	}
	for _, env := range seedEnvs {
		raw, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage input"))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return // malformed input is rejected, never panics
		}
		if _, err := Encode(env); err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
	})
}

// fuzzSeedBodies returns binary-encoded bodies covering every kind, used to
// seed both binary fuzzers (and mirrored in the committed corpus under
// testdata/fuzz).
func fuzzSeedBodies(tb testing.TB) [][]byte {
	u := Update{Origin: "peer-1", Seq: 7, Key: "k", Value: []byte("v"),
		Version: version.History{{1, 2}}, Stamp: 1_700_000_000_000_000_000}
	envs := []Envelope{
		{Kind: KindPush, From: "peer-0", Update: u, RF: []string{"peer-2", "peer-3"}, T: 2},
		{Kind: KindPullReq, From: "peer-1", Clock: version.Clock{"peer-0": 3}},
		{Kind: KindPullResp, From: "peer-2", Updates: []Update{u}, KnownPeers: []string{"peer-4"}},
		{Kind: KindAck, From: "peer-3", UpdateRef: store.Ref{Origin: "peer-1", Seq: 7}},
		{Kind: KindQuery, From: "peer-4", QID: 42, Key: "k"},
		{Kind: KindQueryResp, From: "peer-5", QID: 42, Key: "k", Found: true,
			Value: []byte("v"), Version: u.Version, Confident: true},
		{Kind: KindSnapshot, From: "peer-6", Updates: []Update{u}, Stream: 9, Chunk: 0},
		{Kind: KindSnapshot, From: "peer-6", Updates: []Update{u}, Stream: 9, Chunk: 1, Last: true,
			Clock: version.Clock{"peer-1": 7}, KnownPeers: []string{"peer-7"}},
	}
	bodies := make([][]byte, 0, len(envs))
	for i := range envs {
		body, err := EncodeBinary(&envs[i])
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// FuzzBinaryDecode hardens the binary decoder: arbitrary bytes must never
// panic or allocate unboundedly, and anything that decodes must re-encode
// to the identical canonical bytes (the codec has exactly one encoding per
// envelope).
func FuzzBinaryDecode(f *testing.F) {
	for _, body := range fuzzSeedBodies(f) {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{BinaryVersion})
	f.Add([]byte{BinaryVersion, byte(KindPush), 0})
	f.Add([]byte("garbage input"))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeBinary(data)
		if err != nil {
			return // malformed input is rejected, never panics
		}
		body, err := EncodeBinary(&env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("re-encoding is not canonical:\n in  %x\n out %x", data, body)
		}
	})
}

// FuzzBinaryEnvelope is the differential fuzzer: a structurally arbitrary
// envelope must survive the binary round trip with full field equality,
// judged by the gob reference codec on both sides — except snapshot chunks,
// which gob never carried in this shape: those are judged against the input
// itself here and against the committed vectors of TestSnapshotGoldenVectors.
func FuzzBinaryEnvelope(f *testing.F) {
	f.Add(int8(1), "peer-0", "peer-1", uint64(7), "k", []byte("v"),
		[]byte("0123456789abcdef"), true, int64(1_700_000_000), "peer-2", int64(42), true)
	f.Add(int8(3), "", "", uint64(0), "", []byte{}, []byte{1, 2}, false, int64(-1), "", int64(0), false)
	f.Add(int8(6), "f", "o", uint64(1)<<60, "key", []byte("value"),
		[]byte(""), false, int64(0), "x", int64(-9), true)
	f.Add(int8(KindSnapshot), "f", "o", uint64(300), "key", []byte("value"),
		[]byte("0123456789abcdef"), true, int64(5), "x", int64(2), true)

	f.Fuzz(func(t *testing.T, kind int8, from, origin string, seq uint64,
		key string, value, vid []byte, deleted bool, stamp int64,
		peer string, qid int64, flag bool) {
		var history version.History
		if len(vid) >= version.IDSize {
			var id version.ID
			copy(id[:], vid)
			history = version.History{id}
		}
		u := Update{Origin: origin, Seq: seq, Key: key, Value: value,
			Delete: deleted, Version: history, Stamp: stamp}
		env := Envelope{Kind: Kind(kind), From: from}
		switch env.Kind {
		case KindPush:
			env.Update = u
			env.RF = []string{peer, origin}
			env.T = int(seq % 1024)
		case KindPullReq:
			env.Clock = version.Clock{origin: seq, peer: uint64(qid)}
		case KindPullResp:
			env.Updates = []Update{u, u}
			env.KnownPeers = []string{peer}
		case KindAck:
			env.UpdateRef = store.Ref{Origin: origin, Seq: seq}
		case KindQuery:
			env.QID = qid
			env.Key = key
		case KindQueryResp:
			env.QID = qid
			env.Key = key
			env.Found = flag
			env.Value = value
			env.Version = history
			env.Confident = deleted
		case KindSnapshot:
			env.Updates = []Update{u, u}
			env.Stream = seq
			env.Chunk = int(uint64(qid) % 1024)
			if env.Last = flag; flag {
				env.Clock = version.Clock{origin: seq, peer: uint64(qid)}
			}
			env.KnownPeers = []string{peer}
		default:
			// Unencodable kinds must be reported, not panic.
			if _, err := EncodeBinary(&env); err == nil {
				t.Fatalf("kind %d encoded", kind)
			}
			return
		}
		body, err := EncodeBinary(&env)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := DecodeBinary(body)
		if err != nil {
			t.Fatalf("own encoding does not decode: %v", err)
		}
		if env.Kind == KindSnapshot {
			if got, want := normalizeEnvelope(back), normalizeEnvelope(env); !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot chunk round trip:\n got %+v\nwant %+v", got, want)
			}
			return
		}
		// The gob reference codec round-trips the same envelope; both codecs
		// must land on the same value.
		raw, err := Encode(env)
		if err != nil {
			t.Fatalf("gob reference encode: %v", err)
		}
		ref, err := Decode(raw)
		if err != nil {
			t.Fatalf("gob reference decode: %v", err)
		}
		want := normalizeEnvelope(ref)
		if got := normalizeEnvelope(back); !reflect.DeepEqual(got, want) {
			t.Fatalf("binary round trip diverges from gob reference:\n got %+v\nwant %+v", got, want)
		}
	})
}
