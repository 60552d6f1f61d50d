// Package store implements the replicated, versioned data store that the
// update protocol synchronises.
//
// The paper's data model (§3) is deliberately weak: update conflicts are
// rare, and when concurrent versions of an item arise "it may be treated as
// distinct and coexists as different versions". Deletions use tombstones /
// death certificates. Queries want "correct and most recent" results under
// eventual consistency (§4.4).
//
// The store therefore keeps, per key, a set of version *branches*: applying
// an update discards branches that the update causally dominates (prefix
// order on version histories) and otherwise lets branches coexist. Every
// update carries an (origin, sequence) pair so that a vector clock over
// origins summarises exactly which updates a replica holds; the pull phase
// exchanges these clocks and ships the missing updates ("inquire for missed
// updates based on version vectors", §3).
package store

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// Update is the unit of propagation: one mutation of one key, stamped by its
// origin replica.
type Update struct {
	// Origin identifies the replica that created the update.
	Origin string
	// Seq is the origin's sequence number, starting at 1. The pair
	// (Origin, Seq) is unique and drives vector-clock reconciliation.
	Seq uint64
	// Key is the item being updated.
	Key string
	// Value is the new content (ignored for deletes).
	Value []byte
	// Delete marks a tombstone update.
	Delete bool
	// Version is the item's version history after this update.
	Version version.History
	// Stamp is the creation time (simulated or wall clock), used for
	// tombstone retention.
	Stamp time.Time
}

// Ref is the comparable identity of an update: the (origin, seq) pair. It is
// the map key the protocol engine uses for per-update state, so building one
// must not allocate — unlike the string form, which exists for hooks, logs,
// and the public API.
type Ref struct {
	// Origin identifies the replica that created the update.
	Origin string
	// Seq is the origin's sequence number.
	Seq uint64
}

// String renders the canonical "origin/seq" form.
func (r Ref) String() string {
	return r.Origin + "/" + strconv.FormatUint(r.Seq, 10)
}

// ParseRef parses the canonical "origin/seq" form produced by Ref.String and
// Update.ID. The split is on the last slash, so origins containing slashes
// round-trip.
func ParseRef(id string) (Ref, error) {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return Ref{}, fmt.Errorf("store: update id %q has no sequence", id)
	}
	seq, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return Ref{}, fmt.Errorf("store: update id %q: %w", id, err)
	}
	return Ref{Origin: id[:i], Seq: seq}, nil
}

// Ref returns the update's comparable identity without allocating.
func (u Update) Ref() Ref { return Ref{Origin: u.Origin, Seq: u.Seq} }

// ID returns the unique update identifier "origin/seq".
func (u Update) ID() string { return u.Ref().String() }

// SizeBytes estimates the wire size of the update: key, value, and the
// version history (IDSize bytes per entry), plus a small fixed header.
func (u Update) SizeBytes() int {
	const header = 24 // origin/seq/flags framing
	return header + len(u.Key) + len(u.Value) + len(u.Version)*version.IDSize
}

// Revision is one coexisting branch of an item's history.
type Revision struct {
	// Version is the branch's version history.
	Version version.History
	// Value is the branch content.
	Value []byte
	// Deleted marks a tombstoned branch.
	Deleted bool
	// Stamp is when the branch head was written.
	Stamp time.Time
}

// ApplyResult classifies the outcome of applying an update.
type ApplyResult int

// Apply outcomes.
const (
	// Applied means the update was new and changed the store.
	Applied ApplyResult = iota + 1
	// Duplicate means the exact update (origin, seq) was already known.
	Duplicate
	// Obsolete means the update's version was already dominated by an
	// existing branch; it is recorded in the clock but changes nothing.
	Obsolete
)

// String returns the outcome name.
func (r ApplyResult) String() string {
	switch r {
	case Applied:
		return "applied"
	case Duplicate:
		return "duplicate"
	case Obsolete:
		return "obsolete"
	default:
		return fmt.Sprintf("ApplyResult(%d)", int(r))
	}
}

// Store is a replica's local state under one lock. It is safe for concurrent
// use; Sharded offers the same contract with lock striping for multi-core
// ingest. Both satisfy Backend.
type Store struct {
	mu sync.RWMutex
	// items maps key → coexisting revisions.
	items map[string][]Revision
	// data is the per-origin update log, origin index, and vector clock.
	data originLog
	// tombRetain is how long tombstones are kept before GC.
	tombRetain time.Duration
	// hook, when set, observes every Apply outcome.
	hook ApplyHook
}

// ApplyHook observes apply outcomes: the update, its classification, and the
// number of coexisting revisions of the key after the apply (>1 signals
// concurrent branches). Hooks run synchronously on the applying goroutine
// after the store's lock is released; they must not block.
type ApplyHook func(u Update, res ApplyResult, branches int)

// DefaultTombstoneRetention keeps death certificates for 30 days, a
// conventional choice that comfortably exceeds expected offline periods.
const DefaultTombstoneRetention = 30 * 24 * time.Hour

// New returns an empty store with the default tombstone retention.
func New() *Store { return NewWithRetention(DefaultTombstoneRetention) }

// NewWithRetention returns an empty store keeping tombstones for the given
// duration.
func NewWithRetention(retain time.Duration) *Store {
	return &Store{
		items:      make(map[string][]Revision),
		data:       newOriginLog(),
		tombRetain: retain,
	}
}

// SetApplyHook registers a callback observing every subsequent Apply. Pass
// nil to remove it. Set the hook before the store starts receiving
// concurrent traffic.
func (s *Store) SetApplyHook(h ApplyHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// BranchCount returns the number of coexisting revisions of key, including
// tombstoned branches. Zero means the key is unknown.
func (s *Store) BranchCount(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items[key])
}

// Apply ingests one update and returns the outcome. Updates may arrive in
// any order and repeatedly; Apply is idempotent per (origin, seq).
func (s *Store) Apply(u Update) ApplyResult {
	res, _ := s.ApplyObserved(u)
	return res
}

// ApplyObserved is Apply returning also the number of coexisting revisions
// of the key, counted atomically with the apply — unlike a subsequent
// BranchCount it cannot be skewed by concurrent applies to the same key.
func (s *Store) ApplyObserved(u Update) (ApplyResult, int) {
	s.mu.Lock()
	res := s.applyLocked(u)
	hook := s.hook
	branches := len(s.items[u.Key])
	s.mu.Unlock()
	if hook != nil {
		hook(u, res, branches)
	}
	return res, branches
}

func (s *Store) applyLocked(u Update) ApplyResult {
	if u.Seq == 0 || u.Origin == "" {
		// Malformed updates are treated as obsolete noise rather than
		// panicking; the transport layer validates before this point.
		return Obsolete
	}
	if s.data.have(u.Origin, u.Seq) {
		return Duplicate
	}
	s.data.record(u)
	return applyRevision(s.items, u)
}

// Seen reports whether the exact update identified by ref was already
// applied. It is the cheap duplicate pre-check of the live ingest path:
// a racing twin that slips past it is still caught by Apply itself.
func (s *Store) Seen(ref Ref) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.have(ref.Origin, ref.Seq)
}

// Get returns the winning revision for key. When concurrent branches
// coexist, the winner is the branch with the longest history, ties broken by
// comparing head identifiers — a deterministic "most recent version" rule in
// the spirit of §4.4. The boolean is false if the key is absent or every
// branch is deleted.
func (s *Store) Get(key string) (Revision, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	best, ok := winner(s.items[key])
	if !ok || best.Deleted {
		return Revision{}, false
	}
	return cloneRevision(best), true
}

// Versions returns copies of all coexisting revisions of key, including
// tombstoned branches, sorted deterministically.
func (s *Store) Versions(key string) []Revision {
	s.mu.RLock()
	defer s.mu.RUnlock()
	revs := s.items[key]
	out := make([]Revision, len(revs))
	for i, r := range revs {
		out[i] = cloneRevision(r)
	}
	sortRevisions(out)
	return out
}

// Keys returns the sorted set of keys with at least one live revision.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.items))
	for k, revs := range s.items {
		if w, ok := winner(revs); ok && !w.Deleted {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Clock returns a copy of the store's vector clock.
func (s *Store) Clock() version.Clock {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.clock.Clone()
}

// MissingFor returns every logged update the remote clock has not seen,
// ordered by origin then sequence. It is the payload of a pull response.
//
// Logged updates are immutable, so the result shares their Value and Version
// backing with the log instead of deep-copying; callers must treat the
// returned updates as read-only. Each per-origin log is Seq-ordered, so the
// remote's frontier is found by binary search and the result is allocated at
// its exact final size.
func (s *Store) MissingFor(remote version.Clock) []Update {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.data.missingCount(remote)
	if total == 0 {
		return nil
	}
	return s.data.appendMissing(make([]Update, 0, total), remote)
}

// DeltaFor is MissingFor with compaction awareness: ok == false reports that
// compaction has dropped part of the remote's gap, so only a snapshot can
// catch it up. See Backend.DeltaFor.
func (s *Store) DeltaFor(remote version.Clock) ([]Update, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.data.gapBefore(remote) {
		return nil, false
	}
	total := s.data.missingCount(remote)
	if total == 0 {
		return nil, true
	}
	return s.data.appendMissing(make([]Update, 0, total), remote), true
}

// LiveCut returns the snapshot catch-up payload. See Backend.LiveCut.
func (s *Store) LiveCut() ([]Update, version.Clock) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	superseded := func(u Update) bool { return supersededBy(s.items, u) }
	out := make([]Update, 0, len(s.items))
	for _, o := range s.data.origins {
		out = s.data.appendLive(out, o, superseded)
	}
	return out, s.data.clock.Clone()
}

// CompactLog drops log entries at or below the frontier that no longer back
// a coexisting revision, advancing the compacted watermark. The frontier is
// the minimum clock across known peers (the engine's pull bookkeeping);
// peers further behind than that are caught up by snapshot, which is what
// makes dropping their history safe.
func (s *Store) CompactLog(frontier version.Clock) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data.compact(frontier, func(u Update) bool {
		return retainsInLog(s.items, u, false) // one lock: no apply is ever half done
	})
}

// CompactedThrough returns a copy of the per-origin compacted watermark.
func (s *Store) CompactedThrough() version.Clock {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.compacted.Clone()
}

// AdoptFrontier raises the compacted watermark and clock to wm without
// dropping entries. See Backend.AdoptFrontier.
func (s *Store) AdoptFrontier(wm version.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, through := range wm {
		s.data.adoptCompacted(origin, through)
	}
}

// ExpireTTL tombstones live revisions whose Stamp is at least ttl old at
// now; ttl <= 0 is a no-op. Expired keys feed the ordinary tombstone GC.
func (s *Store) ExpireTTL(now time.Time, ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return expireRevisions(s.items, now, ttl)
}

// UpdateCount returns the number of resident log entries.
func (s *Store) UpdateCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.count()
}

// GCTombstones drops tombstoned revisions (and their log entries' values)
// whose retention expired at `now`, returning the number collected. Live
// branches and the vector clock are untouched, so reconciliation stays
// correct for peers that return within the retention window.
func (s *Store) GCTombstones(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return gcRevisions(s.items, now, s.tombRetain)
}

// Equal reports whether two stores hold identical live state (same keys,
// same winning values). It backs the convergence assertions in the
// integration tests. other may be any Backend implementation.
func (s *Store) Equal(other Backend) bool {
	return backendEqual(s, other)
}

// Reset clears the store to empty, keeping the pointer, retention, and any
// registered hook stable. It models a crash with disk loss.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = make(map[string][]Revision)
	s.data = newOriginLog()
}

func winner(revs []Revision) (Revision, bool) {
	if len(revs) == 0 {
		return Revision{}, false
	}
	sorted := make([]Revision, len(revs))
	copy(sorted, revs)
	sortRevisions(sorted)
	return sorted[0], true
}

// sortRevisions orders branches best-first: longer history wins, then the
// lexicographically larger head id (arbitrary but deterministic across
// replicas), so every replica picks the same winner among concurrent
// branches.
func sortRevisions(revs []Revision) {
	sort.Slice(revs, func(i, j int) bool {
		a, b := revs[i], revs[j]
		if len(a.Version) != len(b.Version) {
			return len(a.Version) > len(b.Version)
		}
		ah, errA := a.Version.Head()
		bh, errB := b.Version.Head()
		if errA != nil || errB != nil {
			return errA == nil
		}
		return bytes.Compare(ah[:], bh[:]) > 0
	})
}

func cloneRevision(r Revision) Revision {
	out := r
	out.Version = r.Version.Clone()
	out.Value = append([]byte(nil), r.Value...)
	return out
}

func cloneUpdate(u Update) Update {
	out := u
	out.Version = u.Version.Clone()
	out.Value = append([]byte(nil), u.Value...)
	return out
}
