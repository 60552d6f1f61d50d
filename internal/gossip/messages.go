package gossip

import (
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// Byte accounting. Every message type's SizeBytes returns the number of
// payload bytes the live runtime's binary codec (internal/wire) would
// produce for the equivalent envelope — computed with the codec's own
// exported size functions, so simulated traffic totals cannot drift from
// the real wire format. Peer indices stand in for the canonical simulator
// address "peer-<index>" (the same identity the store writers use), and the
// per-frame fixed costs (length prefix, format version, kind, sender
// address) are added at the send site, which knows the sender.

// peerAddrSize returns the encoded size of the canonical simulator address
// "peer-<id>" without formatting it: the 5-byte prefix plus the decimal
// digits, behind a string-length varint.
func peerAddrSize(id int) int {
	digits := 1
	for v := id; v >= 10; v /= 10 {
		digits++
	}
	return wire.UvarintSize(uint64(5+digits)) + 5 + digits
}

// peerListSize returns the encoded size of a peer-index list (count varint
// plus one address per entry).
func peerListSize(ids []int) int {
	n := wire.UvarintSize(uint64(len(ids)))
	for _, id := range ids {
		n += peerAddrSize(id)
	}
	return n
}

// frameBytes is the fixed per-message cost: the frame overhead (length
// prefix, format version, kind) plus the sender's address.
func frameBytes(from int) int {
	return wire.FrameOverhead + peerAddrSize(from)
}

// PushBaseBytes returns the binary-encoded size of a push message carrying
// u with an empty flooding list, as sent by peer index `from` — the U term
// of the §4.2 message-size model S_M(t) = U + γ·R·L(t). The flooding-list
// term is charged separately (γ per carried entry).
func PushBaseBytes(u store.Update, from int) int {
	msg := PushMsg{Update: u, T: 3} // a typical 1-byte round counter
	return frameBytes(from) + msg.SizeBytes()
}

// PushMsg is the paper's Push(U, V, R_f, t): one update, the partial
// flooding list of peers the update has already been sent to, and the push
// round counter.
type PushMsg struct {
	// Update carries the data item and its version (the paper's U and V).
	Update store.Update
	// RF is the partial flooding list (peer indices). Nil when the partial
	// list optimisation is disabled.
	RF []int
	// T is the push round counter; the initiator sends with T = 0.
	T int
}

// SizeBytes is the payload's binary-encoded size: the update record, the
// flooding list, and the round counter.
func (m PushMsg) SizeBytes() int {
	return wire.StoreUpdateSize(m.Update) + peerListSize(m.RF) +
		wire.UvarintSize(uint64(m.T))
}

// PullReq asks a peer for updates the sender is missing, summarised by the
// sender's vector clock ("inquire for missed updates based on version
// vectors", §3).
type PullReq struct {
	// Clock is the requester's vector clock.
	Clock version.Clock
}

// SizeBytes is the clock's binary-encoded size. Clock origins are the
// writers' "peer-<id>" strings, so no index translation is needed.
func (m PullReq) SizeBytes() int { return wire.ClockSize(m.Clock) }

// PullResp ships the updates the requester was missing, plus a membership
// sample (the name-dropper effect applied to the pull phase).
type PullResp struct {
	// Updates are the missing updates in (origin, seq) order.
	Updates []store.Update
	// Peers is a sample of the responder's membership view.
	Peers []int
}

// SizeBytes sums the encoded update records and the peer sample.
func (m PullResp) SizeBytes() int {
	n := wire.UvarintSize(uint64(len(m.Updates)))
	for _, u := range m.Updates {
		n += wire.StoreUpdateSize(u)
	}
	return n + peerListSize(m.Peers)
}

// SnapshotMsg is one chunk of a snapshot catch-up stream — the answer to a
// pull request whose gap is compacted away, or larger than the responder's
// live state: a run of the responder's live cut and the chunk's place in its
// stream. The last chunk carries the frontier to adopt and the membership
// sample piggybacked on every pull answer.
type SnapshotMsg struct {
	// Updates are the chunk's records, in (origin, seq) order.
	Updates []store.Update
	// Stream identifies the stream (unique per sender), Chunk is the
	// zero-based position in it, and Last marks its final chunk.
	Stream uint64
	Chunk  int
	Last   bool
	// Frontier is the responder's clock; set on the last chunk only.
	Frontier version.Clock
	// Peers is a sample of the responder's membership view.
	Peers []int
}

// SizeBytes sums the encoded update records, the stream position (two
// varints and the flag byte), the frontier on the last chunk, and the peer
// sample.
func (m SnapshotMsg) SizeBytes() int {
	n := PullResp{Updates: m.Updates, Peers: m.Peers}.SizeBytes() +
		wire.UvarintSize(m.Stream) + wire.UvarintSize(uint64(m.Chunk)) + 1
	if m.Last {
		n += wire.ClockSize(m.Frontier)
	}
	return n
}

// AckMsg acknowledges the receipt of an update (§6): the sender gains
// preference as a future push target. It carries the comparable (origin,
// seq) reference — like the live wire format, no "origin/seq" string is
// formatted or parsed on the ack path.
type AckMsg struct {
	// Ref identifies the acknowledged update.
	Ref store.Ref
}

// SizeBytes is the reference's binary-encoded size.
func (m AckMsg) SizeBytes() int {
	return wire.StringSize(m.Ref.Origin) + wire.UvarintSize(m.Ref.Seq)
}
