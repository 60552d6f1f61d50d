package store

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// CryptoSeed draws a PRNG seed from the system entropy source. Unlike the
// classic time.Now().UnixNano() fallback it cannot collide across writers
// or replicas created in the same instant (coarse clocks, VM snapshots,
// mass restarts).
func CryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable on supported
		// platforms; the timestamp keeps the caller functional.
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// Writer creates well-formed updates on behalf of one replica: it assigns
// per-origin sequence numbers, extends the item's current version history
// (taking the local winning branch as the parent, which is how optimistic
// replication earns its rare conflicts), and applies the update locally.
//
// A Writer is safe for concurrent use: its own mutex serialises sequence
// assignment and the parent-version read, so two concurrent Puts can never
// draw the same Seq or both branch from a version one of them supersedes.
type Writer struct {
	origin string
	store  Backend
	mu     sync.Mutex
	seq    uint64
	now    func() time.Time
	rng    *rand.Rand
}

// NewWriter returns a Writer for the given origin writing through st.
// now and rng may be nil, in which case wall-clock time and a
// crypto-seeded source are used; simulations inject deterministic ones.
func NewWriter(origin string, st Backend, now func() time.Time, rng *rand.Rand) (*Writer, error) {
	if origin == "" {
		return nil, fmt.Errorf("store: writer origin must be non-empty")
	}
	if st == nil {
		return nil, fmt.Errorf("store: writer needs a store")
	}
	if now == nil {
		now = time.Now
	}
	if rng == nil {
		// The same collision class as replica seeding: two writers created
		// in the same instant must not draw identical version-ID streams.
		rng = rand.New(rand.NewSource(CryptoSeed()))
	}
	w := &Writer{origin: origin, store: st, now: now, rng: rng}
	// Resume the sequence after a restart from the store's clock.
	w.seq = st.Clock().Get(origin)
	return w, nil
}

// Origin returns the writer's replica identity.
func (w *Writer) Origin() string { return w.origin }

// Put creates, applies, and returns an update setting key to value.
func (w *Writer) Put(key string, value []byte) Update {
	u, _ := w.mutate(key, value, false)
	return u
}

// Delete creates, applies, and returns a tombstone update for key.
func (w *Writer) Delete(key string) Update {
	u, _ := w.mutate(key, nil, true)
	return u
}

// PutObserved is Put returning also the key's revision count, counted
// atomically with the apply (see Backend.ApplyObserved).
func (w *Writer) PutObserved(key string, value []byte) (Update, int) {
	return w.mutate(key, value, false)
}

// DeleteObserved is Delete returning also the key's revision count, counted
// atomically with the apply.
func (w *Writer) DeleteObserved(key string) (Update, int) {
	return w.mutate(key, nil, true)
}

func (w *Writer) mutate(key string, value []byte, del bool) (Update, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.now()
	// The winning branch is the parent even when it is a tombstone, so the
	// write supersedes the deletion. Append copies it.
	parent := w.store.WinnerVersion(key)
	w.seq++
	u := Update{
		Origin:  w.origin,
		Seq:     w.seq,
		Key:     key,
		Value:   append([]byte(nil), value...),
		Delete:  del,
		Version: parent.Append(version.NewID(now, w.origin, w.rng)),
		Stamp:   now,
	}
	_, branches := w.store.ApplyObserved(u)
	return u, branches
}

// Resync advances the writer's sequence counter to the store's clock for
// its origin. Call after restoring the store from a snapshot so that new
// writes do not reuse sequence numbers.
func (w *Writer) Resync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq := w.store.Clock().Get(w.origin); seq > w.seq {
		w.seq = seq
	}
}
