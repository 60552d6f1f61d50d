package store

import (
	"sort"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// originLog is the per-origin update log with its sorted origin index and
// the vector-clock segment summarising it. It is the unit of state a
// Sharded log shard owns exclusively. originLog does no locking; the owning
// shard serialises access.
type originLog struct {
	// log holds every applied update per origin, ordered by Seq, backing
	// anti-entropy diffs. Logged updates are immutable once appended.
	log map[string][]Update
	// origins is the sorted list of log keys, maintained incrementally so
	// missingFor does not re-sort on every pull request.
	origins []string
	// clock summarises the applied updates of this log's origins.
	clock version.Clock
	// compacted is the per-origin compaction watermark: every sequence at or
	// below it is covered — either retained because it still backs a
	// coexisting revision, or dropped as superseded history. A remote clock
	// below the watermark cannot be served an entry-by-entry delta any more;
	// it needs a snapshot.
	compacted version.Clock
}

func newOriginLog() originLog {
	return originLog{
		log:       make(map[string][]Update),
		clock:     version.NewClock(),
		compacted: version.NewClock(),
	}
}

// have reports whether the (origin, seq) update is already logged. Sequences
// at or below the compaction watermark count as logged: the update was seen
// and either retained or dropped as superseded, so a straggling copy must be
// a duplicate, not a fresh apply that would resurrect compacted history.
func (l *originLog) have(origin string, seq uint64) bool {
	if seq <= l.compacted.Get(origin) {
		return true
	}
	log := l.log[origin]
	idx := seqSearch(log, seq)
	return idx < len(log) && log[idx].Seq == seq
}

// record logs one update (idempotently) and advances the origin's clock
// segment over the contiguous prefix of received sequence numbers. A gap
// (update lost in flight) keeps the clock low so that a later pull
// re-fetches the hole. The log is Seq-sorted, so the walk starts at the
// binary-searched frontier and covers only the newly contiguous run —
// in-order delivery advances in O(log n) + O(1) instead of rescanning the
// whole log.
func (l *originLog) record(u Update) {
	if u.Seq <= l.compacted.Get(u.Origin) {
		// Covered by the compaction watermark: a straggling copy of history
		// that was already retained or dropped; re-inserting it would undo
		// the compaction.
		return
	}
	log, known := l.log[u.Origin]
	if !known {
		l.insertOrigin(u.Origin)
	}
	idx := seqSearch(log, u.Seq)
	if idx < len(log) && log[idx].Seq == u.Seq {
		return
	}
	if len(log) == cap(log) {
		// Double: append grows a large slice by about 1.25×, which makes an
		// origin's log cost several times its final size in allocation while
		// it fills (recovery replay, catch-up).
		log = append(make([]Update, 0, max(2*cap(log), 8)), log...)
	}
	log = log[:len(log)+1]
	copy(log[idx+1:], log[idx:])
	log[idx] = u
	l.log[u.Origin] = log

	cur := l.clock.Get(u.Origin)
	for i := seqSearch(log, cur+1); i < len(log) && log[i].Seq == cur+1; i++ {
		cur++
	}
	if cur > l.clock.Get(u.Origin) {
		l.clock[u.Origin] = cur
	}
}

// insertOrigin adds a newly seen origin to the sorted origin index.
func (l *originLog) insertOrigin(origin string) {
	idx := sort.SearchStrings(l.origins, origin)
	l.origins = append(l.origins, "")
	copy(l.origins[idx+1:], l.origins[idx:])
	l.origins[idx] = origin
}

// compact drops log entries at or below the frontier that retain rejects
// (see retainsInLog) and advances the per-origin compacted watermark. The
// watermark never passes the clock's contiguous prefix: a hole in the log is
// an in-flight update, not history, and must stay pullable. Entries an
// earlier pass retained below the watermark are judged again on every pass —
// an origin gone quiet cannot advance its watermark, but what it wrote can
// still be overwritten — and an origin with nothing resident at or below its
// watermark costs O(1). Returns the number of entries dropped.
func (l *originLog) compact(frontier version.Clock, retain func(Update) bool) int {
	dropped := 0
	for _, o := range l.origins {
		if limit := min(frontier.Get(o), l.clock.Get(o)); limit > l.compacted.Get(o) {
			l.compacted[o] = limit
		}
		through := l.compacted.Get(o)
		log := l.log[o]
		if len(log) == 0 || log[0].Seq > through {
			continue
		}
		end := seqSearch(log, through+1)
		kept := log[:0]
		for _, u := range log[:end] {
			if retain(u) {
				kept = append(kept, u)
			} else {
				dropped++
			}
		}
		kept = append(kept, log[end:]...)
		// Zero the tail so dropped entries' values do not pin memory.
		for i := len(kept); i < len(log); i++ {
			log[i] = Update{}
		}
		l.log[o] = kept
	}
	return dropped
}

// gapBefore reports whether compaction has dropped entries the remote clock
// still needs. A remote below some origin's watermark is not by itself a
// gap: compaction retains entries that still back coexisting revisions, so
// when the full run (remote, watermark] happens to have survived — a peer
// that merely missed a recent, still-live write — the entry-by-entry delta
// is still exact. Only a hole in that run forces a snapshot.
func (l *originLog) gapBefore(remote version.Clock) bool {
	for o, c := range l.compacted {
		r := remote.Get(o)
		if r >= c {
			continue
		}
		log := l.log[o]
		i := seqSearch(log, r+1)
		for seq := r + 1; seq <= c; seq++ {
			if i >= len(log) || log[i].Seq != seq {
				return true
			}
			i++
		}
	}
	return false
}

// adoptCompacted raises the compacted watermark — and the clock — for one
// origin to at least `through`, without dropping entries. It is the receiving
// half of a snapshot catch-up: the snapshot's updates have already been
// applied, and its watermark certifies that everything at or below it that
// still matters was among them, so the clock may jump the holes left by the
// sender's compaction and then resume its contiguous walk.
func (l *originLog) adoptCompacted(origin string, through uint64) {
	if through <= l.compacted.Get(origin) {
		return
	}
	if _, known := l.log[origin]; !known {
		if idx := sort.SearchStrings(l.origins, origin); idx >= len(l.origins) || l.origins[idx] != origin {
			l.insertOrigin(origin)
		}
		l.log[origin] = nil
	}
	l.compacted[origin] = through
	cur := l.clock.Get(origin)
	if cur < through {
		cur = through
		log := l.log[origin]
		for i := seqSearch(log, cur+1); i < len(log) && log[i].Seq == cur+1; i++ {
			cur++
		}
		l.clock[origin] = cur
	}
}

// appendLive appends one origin's share of a live cut: every entry at or
// below the contiguous clock that superseded does not reject, and — like
// compact — everything above it untouched, because a hole in the log is an
// in-flight update the clock (the cut's frontier) does not vouch for.
func (l *originLog) appendLive(out []Update, origin string, superseded func(Update) bool) []Update {
	log := l.log[origin]
	end := seqSearch(log, l.clock.Get(origin)+1)
	for _, u := range log[:end] {
		if !superseded(u) {
			out = append(out, u)
		}
	}
	return append(out, log[end:]...)
}

// missingCount returns the number of logged updates the remote clock has
// not seen.
func (l *originLog) missingCount(remote version.Clock) int {
	total := 0
	for _, o := range l.origins {
		total += len(l.log[o]) - seqSearch(l.log[o], remote.Get(o)+1)
	}
	return total
}

// appendMissing appends every logged update the remote clock has not seen,
// ordered by origin then sequence. The result shares Value and Version
// backing with the log (logged updates are immutable).
func (l *originLog) appendMissing(out []Update, remote version.Clock) []Update {
	for _, o := range l.origins {
		log := l.log[o]
		out = append(out, log[seqSearch(log, remote.Get(o)+1):]...)
	}
	return out
}

// count returns the number of logged updates.
func (l *originLog) count() int {
	n := 0
	for _, log := range l.log {
		n += len(log)
	}
	return n
}

// seqSearch returns the index of the first entry with Seq >= seq. Logs are
// Seq-ordered, so this is the binary-searched frontier of an anti-entropy
// diff when called with seq = remote+1.
func seqSearch(log []Update, seq uint64) int {
	return sort.Search(len(log), func(i int) bool { return log[i].Seq >= seq })
}

// applyRevision merges one update into a key → revisions map: branches the
// update causally dominates are dropped, concurrent branches coexist, and an
// update already covered by an existing branch is Obsolete. This is the
// item-level half of an apply, run under the key's item-shard lock.
func applyRevision(items map[string][]Revision, u Update) ApplyResult {
	revs := items[u.Key]
	newRev := Revision{Version: u.Version, Value: u.Value, Deleted: u.Delete, Stamp: u.Stamp}
	kept := revs[:0]
	dominated := false
	for _, r := range revs {
		switch r.Version.Compare(u.Version) {
		case version.Before:
			// Existing branch is an ancestor: superseded, drop it.
		case version.Equal, version.After:
			// The incoming update is already covered.
			dominated = true
			kept = append(kept, r)
		case version.Concurrent:
			kept = append(kept, r)
		}
	}
	if dominated {
		items[u.Key] = kept
		return Obsolete
	}
	items[u.Key] = append(kept, newRev)
	return Applied
}

// The two predicates below decide what is history. They are a pair, not
// complements: between them lies an entry with no revision of its own and
// none newer — either an update Sharded.apply has recorded in the log but
// not merged yet (in flight), or one whose revision the tombstone GC
// collected. Only the store knows which, so each caller states its side:
// LiveCut, read-only and concurrent with applies, ships everything not
// supersededBy; compaction keeps what retainsInLog says.

// backsRevision reports whether u's version still heads a coexisting branch
// of its key. Snapshots replay the log, so entries backing current branches
// (live or tombstoned) must survive compaction.
func backsRevision(items map[string][]Revision, u Update) bool {
	for _, r := range items[u.Key] {
		if r.Version.Compare(u.Version) == version.Equal {
			return true
		}
	}
	return false
}

// supersededBy reports whether a resident revision of u's key is strictly
// newer than u: an entry is certainly history once something resident has
// overwritten it. Revisions of one key are pairwise concurrent, so an entry
// that backsRevision is never supersededBy.
func supersededBy(items map[string][]Revision, u Update) bool {
	for _, r := range items[u.Key] {
		if r.Version.Compare(u.Version) == version.After {
			return true
		}
	}
	return false
}

// retainsInLog is the retention predicate of log compaction. With no apply
// between its log record and its revision merge, an entry survives exactly
// when it backsRevision: everything else below the frontier is superseded or
// collected history nothing can ask for any more. While such an apply may be
// in flight, an entry without a revision may be that apply's — dropping it
// behind a frontier that covers its sequence number would lose it for good —
// so only entries supersededBy something resident go; the rest are judged
// again by the next pass.
func retainsInLog(items map[string][]Revision, u Update, applyInFlight bool) bool {
	if applyInFlight {
		return !supersededBy(items, u)
	}
	return backsRevision(items, u)
}

// expireRevisions tombstones live revisions whose Stamp is at least ttl old
// at now, in one key → revisions map. Expiry keeps Version and Stamp, so the
// resulting tombstone flows through the ordinary retention GC; because the
// decision depends only on replicated fields (Stamp) and shared policy (ttl),
// replicas running the same janitor converge on the same expiries without
// exchanging a single message.
func expireRevisions(items map[string][]Revision, now time.Time, ttl time.Duration) int {
	expired := 0
	for _, revs := range items {
		for i, r := range revs {
			if !r.Deleted && now.Sub(r.Stamp) >= ttl {
				revs[i].Deleted = true
				expired++
			}
		}
	}
	return expired
}

// gcRevisions drops tombstoned revisions whose retention expired, per the
// GCTombstones contract, from one key → revisions map.
func gcRevisions(items map[string][]Revision, now time.Time, retain time.Duration) int {
	collected := 0
	for key, revs := range items {
		kept := revs[:0]
		for _, r := range revs {
			ts := version.Tombstone{Deleted: r.Version, At: r.Stamp, Retain: retain}
			if r.Deleted && ts.Expired(now) {
				collected++
				continue
			}
			kept = append(kept, r)
		}
		if len(kept) == 0 {
			delete(items, key)
		} else {
			items[key] = kept
		}
	}
	return collected
}
