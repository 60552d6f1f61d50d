package gossip

import (
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wire"
)

// Byte accounting. The simulator delivers engine messages as they are and
// charges each the bytes the live runtime's binary codec (internal/wire)
// would frame the equivalent envelope in — computed with the codec's own
// exported size functions, and pinned against wire.EncodedSize for every
// kind by TestMessageBytesMatchWire, so simulated traffic totals cannot drift
// from the real wire format. Peer indices stand in for the canonical
// simulator address "peer-<index>" (the same identity the store writers
// use).

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

// listSizes sizes push flooding lists, remembering the last. A push batch
// shares one append-only orderedSet view or fresh randomSubset copy, so the
// same first element and length mean the same ids; last keeps them alive.
type listSizes struct {
	last []int
	size int
}

func (c *listSizes) of(ids []int) int {
	if len(ids) == 0 || len(ids) != len(c.last) || &ids[0] != &c.last[0] {
		c.last, c.size = ids, peerListSize(ids)
	}
	return c.size
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
	// T = 3: a typical 1-byte round counter.
	return frameBytes(from) + messageBytes(engine.Message[int]{Kind: engine.KindPush, Update: u, T: 3}, new(listSizes))
}

// messageBytes is the payload size of m's wire envelope: everything behind
// the per-frame fixed cost (frameBytes). Clock origins are the writers'
// "peer-<id>" strings, so only peer lists need index translation.
func messageBytes(m engine.Message[int], lists *listSizes) int {
	switch m.Kind {
	case engine.KindPush:
		return wire.StoreUpdateSize(m.Update) + lists.of(m.RF) + wire.UvarintSize(uint64(m.T))
	case engine.KindPullReq:
		return wire.ClockSize(m.Clock)
	case engine.KindPullResp, engine.KindSnapshot:
		n := wire.UvarintSize(uint64(len(m.Updates))) + peerListSize(m.Peers)
		for _, u := range m.Updates {
			n += wire.StoreUpdateSize(u)
		}
		if m.Kind == engine.KindSnapshot {
			// The stream position: two varints and the flag byte, and the
			// frontier on the last chunk.
			n += wire.UvarintSize(m.Stream) + wire.UvarintSize(uint64(m.Chunk)) + 1
			if m.Last {
				n += wire.ClockSize(m.Clock)
			}
		}
		return n
	case engine.KindAck:
		return wire.StringSize(m.UpdateRef.Origin) + wire.UvarintSize(m.UpdateRef.Seq)
	case engine.KindQuery:
		return 8 + wire.StringSize(m.Key)
	case engine.KindQueryResp:
		return 8 + wire.StringSize(m.Key) + 1 + wire.BlobSize(m.Value) +
			wire.HistorySize(len(m.Version))
	}
	return 0
}
