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
	log map[string]seqLog
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
		log:       make(map[string]seqLog),
		clock:     version.NewClock(),
		compacted: version.NewClock(),
	}
}

// logPage is the entry count of a full seqLog page.
const logPage = 256

// seqLog is one origin's log, ordered by Seq, in pages of logPage entries:
// every page but the last is full, so entry i sits at page i/logPage. The
// first page doubles up to a full page, so a short log — the simulator's
// stores hold hundreds — is one small slice; past it, growth adds a page and
// never copies a logged entry. Pages hold no empty slices: an emptied log
// holds no page at all.
type seqLog struct {
	first []Update
	more  [][]Update
}

// len returns the number of logged entries.
func (g *seqLog) len() int {
	if len(g.more) == 0 {
		return len(g.first)
	}
	return len(g.more)*logPage + len(g.more[len(g.more)-1])
}

// page returns page p, which must exist.
func (g *seqLog) page(p int) []Update {
	if p == 0 {
		return g.first
	}
	return g.more[p-1]
}

// pages returns the number of pages.
func (g *seqLog) pages() int { return min(len(g.first), 1) + len(g.more) }

// at returns a pointer to entry i.
func (g *seqLog) at(i int) *Update {
	if i < logPage {
		return &g.first[i]
	}
	return &g.more[i/logPage-1][i%logPage]
}

// search returns the index of the first entry with Seq >= seq, in O(1) for a
// sequence at or past the tail: in-order replay, pull chunks and pushes.
func (g *seqLog) search(seq uint64) int {
	n := g.len()
	if n == 0 || g.at(n-1).Seq < seq {
		return n
	}
	if g.at(n-1).Seq == seq { // sequences are unique
		return n - 1
	}
	return sort.Search(n-1, func(i int) bool { return g.at(i).Seq >= seq })
}

// contiguous returns the highest sequence reached from cur by consecutive
// logged entries above it.
func (g *seqLog) contiguous(cur uint64) uint64 {
	for i := g.search(cur + 1); i < g.len() && g.at(i).Seq == cur+1; i++ {
		cur++
	}
	return cur
}

// insert places u at index i, shifting the entries after it up by one,
// page by page from the end.
func (g *seqLog) insert(i int, u Update) {
	switch {
	case len(g.first) < logPage:
		if len(g.first) == cap(g.first) {
			g.first = append(make([]Update, 0, min(max(2*cap(g.first), 8), logPage)), g.first...)
		}
		g.first = g.first[:len(g.first)+1]
	case len(g.more) == 0 || len(g.more[len(g.more)-1]) == logPage:
		g.more = append(g.more, make([]Update, 1, logPage))
	default:
		last := &g.more[len(g.more)-1]
		*last = (*last)[:len(*last)+1]
	}
	for p := g.pages() - 1; p > i/logPage; p-- {
		pg := g.page(p)
		copy(pg[1:], pg)
		pg[0] = g.page(p - 1)[logPage-1]
	}
	pg := g.page(i / logPage)
	copy(pg[i%logPage+1:], pg[i%logPage:])
	pg[i%logPage] = u
}

// truncate cuts the log to its first n entries, zeroing the cut ones so
// their values pin no memory, and releases the pages left empty.
func (g *seqLog) truncate(n int) {
	for i := n; i < g.len(); i++ {
		*g.at(i) = Update{}
	}
	if n == 0 {
		*g = seqLog{}
		return
	}
	k := (n - 1) / logPage // pages kept after the first
	clear(g.more[k:])
	if g.more = g.more[:k]; k == 0 {
		g.first = g.first[:n]
	} else {
		g.more[k-1] = g.more[k-1][:n-k*logPage]
	}
}

// appendFrom appends the entries from index i on, a page at a time.
func (g *seqLog) appendFrom(out []Update, i int) []Update {
	for p := i / logPage; p < g.pages(); p++ {
		out = append(out, g.page(p)[max(i-p*logPage, 0):]...)
	}
	return out
}

// have reports whether the (origin, seq) update is already logged. Sequences
// at or below the compaction watermark count as logged: the update was seen
// and either retained or dropped as superseded, so a straggling copy must be
// a duplicate, not a fresh apply that would resurrect compacted history.
func (l *originLog) have(origin string, seq uint64) bool {
	if seq <= l.compacted.Get(origin) {
		return true
	}
	g := l.log[origin]
	i := g.search(seq)
	return i < g.len() && g.at(i).Seq == seq
}

// record logs one update (idempotently) and advances the origin's clock
// segment over the contiguous prefix of received sequence numbers. A gap
// (update lost in flight) keeps the clock low so that a later pull
// re-fetches the hole. The log is Seq-sorted, so the walk starts at the
// searched frontier and covers only the newly contiguous run — in-order
// delivery advances in O(1) instead of rescanning the whole log.
func (l *originLog) record(u Update) {
	if u.Seq <= l.compacted.Get(u.Origin) {
		// Covered by the compaction watermark: a straggling copy of history
		// that was already retained or dropped; re-inserting it would undo
		// the compaction.
		return
	}
	g, known := l.log[u.Origin]
	if !known {
		l.insertOrigin(u.Origin)
	}
	idx := g.search(u.Seq)
	if idx < g.len() && g.at(idx).Seq == u.Seq {
		return
	}
	g.insert(idx, u)
	l.log[u.Origin] = g
	if cur := g.contiguous(l.clock.Get(u.Origin)); cur > l.clock.Get(u.Origin) {
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
		g := l.log[o]
		if g.len() == 0 || g.first[0].Seq > through {
			continue
		}
		// Slide the kept entries down over the dropped ones and the rest
		// after them, then cut the tail.
		end, n, kept := g.search(through+1), g.len(), 0
		for i := 0; i < end; i++ {
			if u := g.at(i); retain(*u) {
				*g.at(kept) = *u
				kept++
			}
		}
		if kept == end {
			continue
		}
		for i := end; i < n; i++ {
			*g.at(kept + i - end) = *g.at(i)
		}
		dropped += end - kept
		g.truncate(kept + n - end)
		l.log[o] = g
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
		// Seqs are distinct and ascending: (r, c] survived whole exactly
		// when its c-r entries are the ones from the first above r.
		g := l.log[o]
		if i := g.search(r+1) + int(c-r) - 1; i >= g.len() || g.at(i).Seq != c {
			return true
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
	g, known := l.log[origin]
	if !known {
		if idx := sort.SearchStrings(l.origins, origin); idx >= len(l.origins) || l.origins[idx] != origin {
			l.insertOrigin(origin)
		}
		l.log[origin] = g
	}
	l.compacted[origin] = through
	if cur := l.clock.Get(origin); cur < through {
		l.clock[origin] = g.contiguous(through)
	}
}

// appendLive appends one origin's share of a live cut: every entry at or
// below the contiguous clock that superseded does not reject, and — like
// compact — everything above it untouched, because a hole in the log is an
// in-flight update the clock (the cut's frontier) does not vouch for.
func (l *originLog) appendLive(out []Update, origin string, superseded func(Update) bool) []Update {
	g := l.log[origin]
	end := g.search(l.clock.Get(origin) + 1)
	for i := 0; i < end; i++ {
		if u := g.at(i); !superseded(*u) {
			out = append(out, *u)
		}
	}
	return g.appendFrom(out, end)
}

// missingCount returns the number of logged updates the remote clock has
// not seen.
func (l *originLog) missingCount(remote version.Clock) int {
	total := 0
	for _, o := range l.origins {
		g := l.log[o]
		total += g.len() - g.search(remote.Get(o)+1)
	}
	return total
}

// count returns the number of logged updates.
func (l *originLog) count() int {
	n := 0
	for _, g := range l.log {
		n += g.len()
	}
	return n
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
