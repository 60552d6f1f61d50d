package gossip

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// TestSnapshotMsgSizeMatchesWire: the simulator charges a snapshot chunk
// exactly the bytes the live binary codec frames it in, for a chunk in the
// middle of a stream and for the trailer with its frontier and peer sample.
func TestSnapshotMsgSizeMatchesWire(t *testing.T) {
	w, err := store.NewWriter("peer-7", store.New(), nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	updates := []store.Update{w.Put("k", []byte("value")), w.Delete("k")}
	for _, msg := range []SnapshotMsg{
		{Updates: updates, Stream: 300, Chunk: 4},
		{Updates: updates[:1], Stream: 1 << 40, Chunk: 130, Last: true,
			Frontier: version.Clock{"peer-7": 2, "peer-12": 900}, Peers: []int{3, 12}},
	} {
		env := wire.Envelope{
			Kind: wire.KindSnapshot, From: "peer-7",
			Stream: msg.Stream, Chunk: msg.Chunk, Last: msg.Last, Clock: msg.Frontier,
		}
		for _, u := range msg.Updates {
			env.Updates = append(env.Updates, wire.FromStore(u))
		}
		for _, id := range msg.Peers {
			env.KnownPeers = append(env.KnownPeers, fmt.Sprintf("peer-%d", id))
		}
		if got, want := frameBytes(7)+msg.SizeBytes(), wire.EncodedSize(&env); got != want {
			t.Fatalf("chunk %d: simulator charges %dB, the codec frames %dB", msg.Chunk, got, want)
		}
	}
}
