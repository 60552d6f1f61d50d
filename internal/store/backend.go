package store

import (
	"io"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// Backend is the store contract the protocol layers program against. The
// lock-striped Sharded is its one implementation; the property tests hold it,
// at several shard counts, to an independent in-test model of the §3 data
// model outcome-for-outcome on random interleaved workloads.
type Backend interface {
	// Apply ingests one update and returns the outcome. Updates may arrive
	// in any order and repeatedly; Apply is idempotent per (origin, seq).
	Apply(u Update) ApplyResult
	// ApplyObserved is Apply returning also the number of coexisting
	// revisions of the key, counted atomically with the apply.
	ApplyObserved(u Update) (ApplyResult, int)
	// Seen reports whether the exact update identified by ref was already
	// applied. It is a cheap duplicate pre-check; a racing twin that slips
	// past it is still caught by Apply itself.
	Seen(ref Ref) bool
	// SetApplyHook registers a callback observing every subsequent Apply.
	SetApplyHook(h ApplyHook)
	// BranchCount returns the number of coexisting revisions of key,
	// including tombstoned branches.
	BranchCount(key string) int
	// Get returns the winning revision for key (see Sharded.Get).
	Get(key string) (Revision, bool)
	// WinnerVersion returns the shared, read-only version history of key's
	// winning branch, tombstoned or not (nil for an unknown key).
	WinnerVersion(key string) version.History
	// Versions returns copies of all coexisting revisions of key, sorted
	// deterministically.
	Versions(key string) []Revision
	// Keys returns the sorted set of keys with at least one live revision.
	Keys() []string
	// Clock returns a copy of the store's vector clock.
	Clock() version.Clock
	// MissingFor returns every logged update the remote clock has not seen,
	// ordered by origin then sequence. Callers must treat the returned
	// updates as read-only.
	MissingFor(remote version.Clock) []Update
	// DeltaFor is MissingFor with compaction awareness: it returns the
	// remote's missing updates only when the log still holds the complete
	// run. ok == false reports that compaction has dropped part of the
	// remote's gap, so only a snapshot can catch it up — never a silent
	// partial delta.
	DeltaFor(remote version.Clock) (updates []Update, ok bool)
	// LiveCut returns the snapshot catch-up payload: the resident log
	// entries that no resident revision has overwritten, in MissingFor's
	// canonical order, plus the store's own clock as the frontier they
	// vouch for. A receiver that applies the updates and then AdoptFrontier
	// of the clock holds the responder's live state and clock, at a cost
	// of O(live state) however long the history behind it is. In a
	// quiescent store these are exactly the entries CompactLog(Clock())
	// would retain, but the cut is read-only and taken under one
	// whole-store lock, so an update between its log record and its
	// revision merge is shipped, never dropped. Callers must treat the
	// returned updates as read-only.
	LiveCut() (updates []Update, frontier version.Clock)
	// CompactLog drops log entries at or below the frontier that no longer
	// back a coexisting revision, advancing the per-origin compacted
	// watermark (bounded by the clock's contiguous prefix). It returns the
	// number of entries dropped.
	CompactLog(frontier version.Clock) int
	// CompactedThrough returns a copy of the per-origin compacted watermark.
	CompactedThrough() version.Clock
	// AdoptFrontier raises the compacted watermark (and the clock, over the
	// sender's compaction holes) to wm without dropping entries — the
	// receiving half of a snapshot catch-up, called after the snapshot's
	// updates have been applied.
	AdoptFrontier(wm version.Clock)
	// ExpireTTL tombstones live revisions whose Stamp is at least ttl old at
	// now, feeding the tombstone GC; ttl <= 0 is a no-op. It returns the
	// number of revisions expired.
	ExpireTTL(now time.Time, ttl time.Duration) int
	// UpdateCount returns the number of resident log entries (post-
	// compaction: live-state-backing entries plus the uncompacted tail).
	UpdateCount() int
	// GCTombstones drops tombstoned revisions whose retention expired at
	// now, returning the number collected.
	GCTombstones(now time.Time) int
	// WriteSnapshot serialises the full update log to w in canonical
	// (origin asc, seq asc) order — the bytes depend only on logical
	// contents, never on internal layout.
	WriteSnapshot(w io.Writer) error
	// RestoreSnapshot replaces the contents with a snapshot previously
	// produced by WriteSnapshot, keeping the receiver pointer stable.
	RestoreSnapshot(r io.Reader) error
	// Equal reports whether two stores hold identical live state.
	Equal(other Backend) bool
	// Reset clears the store to empty, keeping the pointer, retention, and
	// any registered hook stable. It models a crash with disk loss.
	Reset()
}

var _ Backend = (*Sharded)(nil)

// RunJanitor performs one maintenance pass over st: expire live revisions at
// least keyTTL old into tombstones (keyTTL <= 0 skips it), collect
// tombstones past retention, then compact the update log up to frontier —
// the pointwise-minimum clock across recently pulling peers; nil skips it.
// It returns the three counts for the caller to report under its own names.
func RunJanitor(st Backend, now time.Time, keyTTL time.Duration, frontier version.Clock) (expired, collected, compacted int) {
	expired = st.ExpireTTL(now, keyTTL)
	collected = st.GCTombstones(now)
	if frontier != nil {
		compacted = st.CompactLog(frontier)
	}
	return expired, collected, compacted
}
