package store

import (
	"bytes"
	"io"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/pgrid"
	"github.com/p2pgossip/update/internal/version"
)

// Sharded is a replica's local state: the lock-striped Backend, safe for
// concurrent use and built for multi-core ingest. One shard is the
// single-lock layout. State is split two ways, because the store's two
// halves have different natural keys:
//
//   - log shards, routed by hash of the update's Origin, each own their
//     slice of the per-origin log, the frontier (origin) index, and the
//     vector-clock segment summarising it. An origin lives entirely in one
//     shard, so per-origin invariants (Seq ordering, contiguous-prefix clock
//     advance, duplicate detection) need no cross-shard coordination.
//   - item shards, routed by hash of the update's Key, each own their slice
//     of the key → revision-branches map. A key lives entirely in one shard,
//     so version domination between concurrent branches of the same key is
//     still decided under a single lock.
//
// Both routers use pgrid.PathBits — the same hash that addresses P-Grid's
// binary trie — taking the high bits, so a shard corresponds to a contiguous
// run of trie partitions and store sharding aligns with P-Grid partitioning.
//
// Lock ordering: Apply never holds a log-shard and an item-shard lock at the
// same time (log first, released, then item). Whole-store operations
// (MissingFor, Clock, Keys, Reset, RestoreSnapshot) lock shards in ascending
// index order, log shards strictly before item shards. No operation acquires
// two locks of the same kind out of order, so the store cannot deadlock
// against itself.
//
// The apply window between the log record and the revision merge means a
// reader can momentarily see an update in the log (clock, MissingFor) before
// it reaches the revision map. For readers of the log alone — anti-entropy
// deltas, disk snapshots — that is indistinguishable from the update having
// been applied just before the read. LiveCut and CompactLog read both halves
// and treat "no revision yet" as in flight, never as history: LiveCut always
// (supersededBy), CompactLog for the log shards whose inFlight count says an
// apply is inside the window (retainsInLog).
type Sharded struct {
	logs  []logShard
	items []itemShard
	// shift converts pgrid.PathBits' high bits into a shard index:
	// 64 - log2(shards). A single shard shifts by 64, which Go defines as 0.
	shift uint
	// tombRetain is how long tombstones are kept before GC. Immutable after
	// construction.
	tombRetain time.Duration
	// hook observes every Apply outcome; stored atomically so ingest never
	// takes a store-wide lock to read it.
	hook atomic.Pointer[ApplyHook]
}

// logShard is one independently locked slice of the update log.
type logShard struct {
	mu   sync.RWMutex
	data originLog
	// inFlight counts applies that recorded an update in this shard and have
	// not merged its revision yet. Raised under mu, so a holder of mu reads
	// zero only when every entry of the shard has had its merge.
	inFlight atomic.Int32
}

// itemShard is one independently locked slice of the revision map.
type itemShard struct {
	mu    sync.RWMutex
	items map[string][]Revision
}

// DefaultShards is the shard count NewSharded(0) uses — enough stripes to
// keep a fanout of connection readers from colliding, small enough that
// whole-store operations stay cheap.
const DefaultShards = 8

// maxShards bounds the stripe count; beyond this, per-shard fixed costs
// dominate any contention win.
const maxShards = 256

// NewSharded returns an empty sharded store with the default tombstone
// retention. shards <= 0 selects DefaultShards; other values are rounded up
// to the next power of two and capped at maxShards.
func NewSharded(shards int) *Sharded {
	return NewShardedWithRetention(shards, DefaultTombstoneRetention)
}

// NewShardedWithRetention is NewSharded with an explicit tombstone
// retention.
func NewShardedWithRetention(shards int, retain time.Duration) *Sharded {
	n := normalizeShards(shards)
	s := &Sharded{
		logs:       make([]logShard, n),
		items:      make([]itemShard, n),
		shift:      uint(64 - bits.TrailingZeros(uint(n))),
		tombRetain: retain,
	}
	for i := range s.logs {
		s.logs[i].data = newOriginLog()
	}
	for i := range s.items {
		s.items[i].items = make(map[string][]Revision)
	}
	return s
}

// normalizeShards maps a requested shard count onto the supported range:
// a power of two in [1, maxShards], defaulting to DefaultShards.
func normalizeShards(shards int) int {
	if shards <= 0 {
		return DefaultShards
	}
	if shards > maxShards {
		return maxShards
	}
	return 1 << uint(bits.Len(uint(shards-1)))
}

// ShardCount returns the number of stripes (same for logs and items).
func (s *Sharded) ShardCount() int { return len(s.logs) }

// logFor routes an origin to its log shard.
func (s *Sharded) logFor(origin string) *logShard {
	return &s.logs[pgrid.PathBits(origin)>>s.shift]
}

// itemFor routes a key to its item shard.
func (s *Sharded) itemFor(key string) *itemShard {
	return &s.items[pgrid.PathBits(key)>>s.shift]
}

// SetApplyHook registers a callback observing every subsequent Apply. Pass
// nil to remove it.
func (s *Sharded) SetApplyHook(h ApplyHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

// Apply ingests one update and returns the outcome. Updates may arrive in
// any order and repeatedly; Apply is idempotent per (origin, seq), and
// applies routed to different shards run without contending.
func (s *Sharded) Apply(u Update) ApplyResult {
	res, _ := s.ApplyObserved(u)
	return res
}

// ApplyObserved is Apply returning also the number of coexisting revisions
// of the key, counted atomically with the revision merge.
func (s *Sharded) ApplyObserved(u Update) (ApplyResult, int) {
	res, branches := s.apply(u)
	if h := s.hook.Load(); h != nil {
		(*h)(u, res, branches)
	}
	return res, branches
}

func (s *Sharded) apply(u Update) (ApplyResult, int) {
	if u.Seq == 0 || u.Origin == "" {
		// Malformed updates are treated as obsolete noise rather than
		// panicking; the transport layer validates before this point.
		return Obsolete, s.BranchCount(u.Key)
	}
	ls := s.logFor(u.Origin)
	ls.mu.Lock()
	if ls.data.have(u.Origin, u.Seq) {
		ls.mu.Unlock()
		return Duplicate, s.BranchCount(u.Key)
	}
	ls.data.record(u)
	ls.inFlight.Add(1)
	ls.mu.Unlock()

	is := s.itemFor(u.Key)
	is.mu.Lock()
	res := applyRevision(is.items, u)
	branches := len(is.items[u.Key])
	is.mu.Unlock()
	ls.inFlight.Add(-1)
	return res, branches
}

// Seen reports whether the exact update identified by ref was already
// applied, touching only the origin's log shard.
func (s *Sharded) Seen(ref Ref) bool {
	ls := s.logFor(ref.Origin)
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.data.have(ref.Origin, ref.Seq)
}

// BranchCount returns the number of coexisting revisions of key, including
// tombstoned branches. Zero means the key is unknown.
func (s *Sharded) BranchCount(key string) int {
	is := s.itemFor(key)
	is.mu.RLock()
	defer is.mu.RUnlock()
	return len(is.items[key])
}

// Get returns the winning revision for key. When concurrent branches
// coexist, the winner is the branch with the longest history, ties broken by
// comparing head identifiers — a deterministic "most recent version" rule in
// the spirit of §4.4. The boolean is false if the key is absent or its
// winning branch is deleted.
func (s *Sharded) Get(key string) (Revision, bool) {
	is := s.itemFor(key)
	is.mu.RLock()
	defer is.mu.RUnlock()
	best, ok := winner(is.items[key])
	if !ok || best.Deleted {
		return Revision{}, false
	}
	return cloneRevision(best), true
}

// WinnerVersion implements Backend, under the item shard's read lock.
func (s *Sharded) WinnerVersion(key string) version.History {
	is := s.itemFor(key)
	is.mu.RLock()
	defer is.mu.RUnlock()
	best, _ := winner(is.items[key])
	return best.Version
}

// Versions returns copies of all coexisting revisions of key, including
// tombstoned branches, sorted deterministically.
func (s *Sharded) Versions(key string) []Revision {
	is := s.itemFor(key)
	is.mu.RLock()
	defer is.mu.RUnlock()
	revs := is.items[key]
	out := make([]Revision, len(revs))
	for i, r := range revs {
		out[i] = cloneRevision(r)
	}
	sortRevisions(out)
	return out
}

// Keys returns the sorted set of keys with at least one live revision,
// gathered under all item-shard read locks (ascending) for a consistent cut.
func (s *Sharded) Keys() []string {
	for i := range s.items {
		s.items[i].mu.RLock()
	}
	var keys []string
	for i := range s.items {
		for k, revs := range s.items[i].items {
			if w, ok := winner(revs); ok && !w.Deleted {
				keys = append(keys, k)
			}
		}
	}
	for i := len(s.items) - 1; i >= 0; i-- {
		s.items[i].mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Clock composes the per-shard vector-clock segments into the global clock.
// Origins are disjoint across shards, so composition is a union, taken under
// all log-shard read locks (ascending) for a consistent cut.
func (s *Sharded) Clock() version.Clock {
	s.rlockLogs()
	defer s.runlockLogs()
	return s.clockLocked()
}

// clockLocked is Clock under log-shard locks the caller holds.
func (s *Sharded) clockLocked() version.Clock {
	out := version.NewClock()
	for i := range s.logs {
		for origin, seq := range s.logs[i].data.clock {
			out[origin] = seq
		}
	}
	return out
}

// rlockLogs takes every log-shard read lock in ascending order — the first
// half of the whole-store lock order; runlockLogs releases them.
func (s *Sharded) rlockLogs() {
	for i := range s.logs {
		s.logs[i].mu.RLock()
	}
}

func (s *Sharded) runlockLogs() {
	for i := len(s.logs) - 1; i >= 0; i-- {
		s.logs[i].mu.RUnlock()
	}
}

// sortedOrigins returns every logged origin in ascending order. Origins are
// disjoint across shards and sorted within each, so a global sort of the
// union restores the canonical order; each origin's run then comes whole
// from its home shard. Callers hold the log-shard locks.
func (s *Sharded) sortedOrigins() []string {
	n := 0
	for i := range s.logs {
		n += len(s.logs[i].data.origins)
	}
	origins := make([]string, 0, n)
	for i := range s.logs {
		origins = append(origins, s.logs[i].data.origins...)
	}
	sort.Strings(origins)
	return origins
}

// missingLocked is MissingFor under log-shard locks the caller holds.
func (s *Sharded) missingLocked(remote version.Clock) []Update {
	total := 0
	for i := range s.logs {
		total += s.logs[i].data.missingCount(remote)
	}
	if total == 0 {
		return nil
	}
	out := make([]Update, 0, total)
	for _, o := range s.sortedOrigins() {
		g := s.logFor(o).data.log[o]
		out = g.appendFrom(out, g.search(remote.Get(o)+1))
	}
	return out
}

// MissingFor returns every logged update the remote clock has not seen, in
// canonical (origin asc, seq asc) order — shard layout never leaks into the
// result. It is the payload of a pull response. Logged updates are immutable,
// so the result shares their Value and Version backing with the log; it is
// taken under all log-shard read locks for a consistent cut, and callers
// must treat it as read-only.
func (s *Sharded) MissingFor(remote version.Clock) []Update {
	s.rlockLogs()
	defer s.runlockLogs()
	return s.missingLocked(remote)
}

// DeltaFor is MissingFor with compaction awareness: ok == false reports that
// compaction has dropped part of the remote's gap, so only a snapshot can
// catch it up. Taken under all log-shard read locks for a consistent cut.
func (s *Sharded) DeltaFor(remote version.Clock) ([]Update, bool) {
	s.rlockLogs()
	defer s.runlockLogs()
	for i := range s.logs {
		if s.logs[i].data.gapBefore(remote) {
			return nil, false
		}
	}
	return s.missingLocked(remote), true
}

// LiveCut returns the snapshot catch-up payload (see Backend.LiveCut) under
// the whole-store lock order, read-only: all log shards ascending, then all
// item shards. Holding the log locks first is what makes the drop predicate
// safe: any revision visible in an item shard had its log record written
// before the log locks were taken, so the entry that supersedes a dropped
// one is always itself in the cut.
func (s *Sharded) LiveCut() ([]Update, version.Clock) {
	s.rlockLogs()
	keys := 0
	for i := range s.items {
		s.items[i].mu.RLock()
		keys += len(s.items[i].items)
	}
	superseded := func(u Update) bool {
		return supersededBy(s.itemFor(u.Key).items, u)
	}
	out := make([]Update, 0, keys)
	for _, o := range s.sortedOrigins() {
		out = s.logFor(o).data.appendLive(out, o, superseded)
	}
	frontier := s.clockLocked()
	for i := len(s.items) - 1; i >= 0; i-- {
		s.items[i].mu.RUnlock()
	}
	s.runlockLogs()
	return out, frontier
}

// CompactLog drops log entries at or below the frontier that no longer back
// a coexisting revision, advancing the compacted watermark. It takes the
// whole-store lock order (all log shards ascending, then all item shards)
// because the retention predicate reads the revision maps while the logs are
// being rewritten. Holding the log locks freezes each shard's inFlight count
// from rising, so a shard read at zero is judged exactly and any other
// conservatively (retainsInLog).
func (s *Sharded) CompactLog(frontier version.Clock) int {
	for i := range s.logs {
		s.logs[i].mu.Lock()
	}
	for i := range s.items {
		s.items[i].mu.RLock()
	}
	dropped := 0
	for i := range s.logs {
		inFlight := s.logs[i].inFlight.Load() != 0
		dropped += s.logs[i].data.compact(frontier, func(u Update) bool {
			return retainsInLog(s.itemFor(u.Key).items, u, inFlight)
		})
	}
	for i := len(s.items) - 1; i >= 0; i-- {
		s.items[i].mu.RUnlock()
	}
	for i := len(s.logs) - 1; i >= 0; i-- {
		s.logs[i].mu.Unlock()
	}
	return dropped
}

// CompactedThrough returns a copy of the per-origin compacted watermark,
// composed from the per-shard segments like Clock.
func (s *Sharded) CompactedThrough() version.Clock {
	s.rlockLogs()
	defer s.runlockLogs()
	return s.compactedLocked()
}

// compactedLocked is CompactedThrough under log-shard locks the caller holds.
func (s *Sharded) compactedLocked() version.Clock {
	out := version.NewClock()
	for i := range s.logs {
		for origin, seq := range s.logs[i].data.compacted {
			out[origin] = seq
		}
	}
	return out
}

// AdoptFrontier raises the compacted watermark and clock to wm without
// dropping entries. Each origin lives entirely in one log shard, so adoption
// is per-shard with no cross-shard atomicity needed.
func (s *Sharded) AdoptFrontier(wm version.Clock) {
	for origin, through := range wm {
		ls := s.logFor(origin)
		ls.mu.Lock()
		ls.data.adoptCompacted(origin, through)
		ls.mu.Unlock()
	}
}

// ExpireTTL tombstones live revisions whose Stamp is at least ttl old at
// now; ttl <= 0 is a no-op. Shards are expired one at a time; expiry needs
// no cross-shard atomicity.
func (s *Sharded) ExpireTTL(now time.Time, ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	expired := 0
	for i := range s.items {
		s.items[i].mu.Lock()
		expired += expireRevisions(s.items[i].items, now, ttl)
		s.items[i].mu.Unlock()
	}
	return expired
}

// UpdateCount returns the number of resident log entries.
func (s *Sharded) UpdateCount() int {
	n := 0
	for i := range s.logs {
		s.logs[i].mu.RLock()
		n += s.logs[i].data.count()
		s.logs[i].mu.RUnlock()
	}
	return n
}

// GCTombstones drops tombstoned revisions whose retention expired at now,
// returning the number collected. Shards are collected one at a time; GC
// needs no cross-shard atomicity.
func (s *Sharded) GCTombstones(now time.Time) int {
	collected := 0
	for i := range s.items {
		s.items[i].mu.Lock()
		collected += gcRevisions(s.items[i].items, now, s.tombRetain)
		s.items[i].mu.Unlock()
	}
	return collected
}

// Equal reports whether the two stores hold identical live state: the same
// live keys, each with a byte-equal winning value and an Equal winning
// version history.
func (s *Sharded) Equal(other Backend) bool {
	keys := s.Keys()
	if !slices.Equal(keys, other.Keys()) {
		return false
	}
	for _, k := range keys {
		a, okA := s.Get(k)
		b, okB := other.Get(k)
		if okA != okB || !bytes.Equal(a.Value, b.Value) || a.Version.Compare(b.Version) != version.Equal {
			return false
		}
	}
	return true
}

// LogImage returns MissingFor(nil) and the compacted watermark, read in one
// cut across all log shards so a compaction cannot pair fresh entries with a
// stale watermark. Applying the updates to an empty store and then adopting
// the watermark rebuilds this one. The updates are read-only.
func (s *Sharded) LogImage() ([]Update, version.Clock) {
	s.rlockLogs()
	defer s.runlockLogs()
	return s.missingLocked(nil), s.compactedLocked()
}

// WriteSnapshot serialises LogImage to w. The stream is byte-identical for
// the same logical contents whatever the shard count, because the image's
// orders are canonical.
func (s *Sharded) WriteSnapshot(w io.Writer) error {
	updates, compacted := s.LogImage()
	return encodeSnapshot(w, updates, compacted)
}

// RestoreSnapshot replaces the store's contents with a snapshot previously
// produced by WriteSnapshot, keeping the pointer — and any
// registered apply hook — stable. The current shard count and tombstone
// retention are kept.
func (s *Sharded) RestoreSnapshot(r io.Reader) error {
	updates, compacted, err := decodeSnapshot(r)
	if err != nil {
		return err
	}
	// Build the replacement off to the side with the same shape, then swap
	// shard contents under the standard whole-store lock order.
	fresh := NewShardedWithRetention(len(s.logs), s.tombRetain)
	for _, u := range updates {
		fresh.Apply(u)
	}
	fresh.AdoptFrontier(compacted)
	s.replaceFrom(fresh)
	return nil
}

// Reset clears the store to empty, keeping shard count, retention, hook,
// and the pointer stable. It is the simulator's crash-with-disk-loss path.
func (s *Sharded) Reset() {
	s.replaceFrom(NewShardedWithRetention(len(s.logs), s.tombRetain))
}

// replaceFrom adopts the shard contents of fresh, which must have the same
// shard count and must not be shared with any other goroutine. Locks follow
// the whole-store order: all log shards ascending, then all item shards
// ascending.
func (s *Sharded) replaceFrom(fresh *Sharded) {
	for i := range s.logs {
		s.logs[i].mu.Lock()
	}
	for i := range s.items {
		s.items[i].mu.Lock()
	}
	for i := range s.logs {
		s.logs[i].data = fresh.logs[i].data
	}
	for i := range s.items {
		s.items[i].items = fresh.items[i].items
	}
	for i := len(s.items) - 1; i >= 0; i-- {
		s.items[i].mu.Unlock()
	}
	for i := len(s.logs) - 1; i >= 0; i-- {
		s.logs[i].mu.Unlock()
	}
}
