// Package wire defines the transport-independent message format of the live
// (asynchronous) runtime and its codecs.
//
// The paper keeps the propagation mechanism orthogonal to the physical
// network (§1); this package is the concrete boundary: the same envelopes
// travel over in-memory channels in tests and over TCP in deployments.
//
// Two codecs exist. The hand-rolled binary codec (binary.go) is the wire
// format: length-prefixed frames, varint integers, clocks and update
// references encoded directly from their protocol types, pooled buffers, so
// a push fanout encodes its envelope once and reuses the bytes for every
// destination. The gob codec (Encode/Decode below) is the compat shim and
// differential-testing reference: it serialises the same Envelope through
// the standard library, and the fuzzers hold the binary codec to it.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// Kind discriminates envelope payloads.
type Kind int

// Envelope kinds.
const (
	// KindPush carries an update push.
	KindPush Kind = iota + 1
	// KindPullReq asks for missing updates.
	KindPullReq
	// KindPullResp ships missing updates.
	KindPullResp
	// KindAck acknowledges an update receipt.
	KindAck
	// KindQuery asks a replica for its current revision of a key (§4.4).
	KindQuery
	// KindQueryResp answers a query.
	KindQueryResp
	// kindSnapshotV1 is the retired snapshot frame of the first release: the
	// responder's whole resident log as one gob blob. Its number is never
	// reused and both codec sides refuse it, so a v1 node and a current one
	// reject each other's snapshot frames instead of misparsing them.
	kindSnapshotV1
	// KindSnapshot is one chunk of a snapshot catch-up stream: the answer to
	// a pull request whose gap is compacted away, or larger than the
	// responder's live state, as update records; the last chunk carries the
	// frontier clock they vouch for.
	KindSnapshot

	// kindMax bounds the valid kind range for the binary codec.
	kindMax = KindSnapshot
)

// validKind reports whether the binary codec speaks k.
func validKind(k Kind) bool {
	return k >= KindPush && k <= kindMax && k != kindSnapshotV1
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindPullReq:
		return "pull-req"
	case KindPullResp:
		return "pull-resp"
	case KindAck:
		return "ack"
	case KindQuery:
		return "query"
	case KindQueryResp:
		return "query-resp"
	case KindSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Update is the wire form of store.Update. It differs only in the stamp
// representation (UnixNano rather than time.Time, so codecs never touch
// location data); version histories travel as their protocol type and are
// validated structurally by the binary decoder (16-byte identifiers).
type Update struct {
	Origin  string
	Seq     uint64
	Key     string
	Value   []byte
	Delete  bool
	Version version.History
	Stamp   int64 // UnixNano
}

// FromStore converts a store.Update to its wire form. The version history is
// aliased, not copied: histories are append-only (version.History.Append is
// copy-on-write), so a shared backing array stays valid. The value is copied
// — wire values may outlive the envelope on transport queues, and the
// store's log entries must stay immutable.
func FromStore(u store.Update) Update {
	return Update{
		Origin:  u.Origin,
		Seq:     u.Seq,
		Key:     u.Key,
		Value:   append([]byte(nil), u.Value...),
		Delete:  u.Delete,
		Version: u.Version,
		Stamp:   u.Stamp.UnixNano(),
	}
}

// ToStore converts back to a store.Update. The value and version backing is
// aliased: the binary decoder allocates both freshly per update, so the
// store adopting them shares memory with nothing that is reused.
func (u Update) ToStore() store.Update {
	return store.Update{
		Origin:  u.Origin,
		Seq:     u.Seq,
		Key:     u.Key,
		Value:   u.Value,
		Delete:  u.Delete,
		Version: u.Version,
		Stamp:   time.Unix(0, u.Stamp),
	}
}

// Envelope is one transport message.
type Envelope struct {
	// Kind selects which payload fields are meaningful.
	Kind Kind
	// From is the sender's address.
	From string
	// Update is set for KindPush.
	Update Update
	// RF is the partial flooding list (addresses) for KindPush.
	RF []string
	// T is the push round counter for KindPush.
	T int
	// Clock is the requester's vector clock for KindPullReq and, on the Last
	// chunk of a KindSnapshot stream, the responder's frontier. It is carried
	// directly — the hot path pays no map copy.
	Clock version.Clock
	// Updates are the missing updates for KindPullResp and the records of
	// one KindSnapshot chunk.
	Updates []Update
	// KnownPeers is a membership sample piggybacked on KindPullResp and
	// KindSnapshot — the name-dropper effect applied to the pull phase, which
	// bootstraps the views of freshly joined replicas.
	KnownPeers []string
	// Stream identifies the snapshot stream a KindSnapshot chunk belongs to
	// (unique per sender), Chunk is its zero-based position in that stream,
	// and Last marks the chunk that ends it and carries the frontier. A
	// receiver adopts the frontier only after chunks 0..Chunk of the same
	// stream, in order.
	Stream uint64
	Chunk  int
	Last   bool
	// Snapshot was the gob payload of the retired v1 snapshot frame. The
	// binary codec neither writes nor reads it.
	Snapshot []byte
	// UpdateRef identifies the acknowledged update for KindAck. The
	// comparable (origin, seq) form travels as-is; no "origin/seq" string is
	// formatted or parsed on the ack path.
	UpdateRef store.Ref
	// QID correlates KindQuery/KindQueryResp pairs.
	QID int64
	// Key is the queried key for KindQuery/KindQueryResp.
	Key string
	// Found reports whether the responder holds a live revision
	// (KindQueryResp).
	Found bool
	// Value and Version carry the responder's winning revision
	// (KindQueryResp).
	Value []byte
	// Version is the revision's history.
	Version version.History
	// Confident is false when the responder suspects it is stale.
	Confident bool
}

// Encode serialises the envelope with gob — the compat/reference codec. The
// transports speak the binary codec; this survives for tools, differential
// tests, and the fuzzers' oracle.
func Encode(env Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return nil, fmt.Errorf("wire: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserialises a gob envelope produced by Encode.
func Decode(raw []byte) (Envelope, error) {
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return Envelope{}, fmt.Errorf("wire: decode: %w", err)
	}
	return env, nil
}
