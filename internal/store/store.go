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

// ApplyHook observes apply outcomes: the update, its classification, and the
// number of coexisting revisions of the key after the apply (>1 signals
// concurrent branches). Hooks run synchronously on the applying goroutine
// after the store's lock is released; they must not block.
type ApplyHook func(u Update, res ApplyResult, branches int)

// DefaultTombstoneRetention keeps death certificates for 30 days, a
// conventional choice that comfortably exceeds expected offline periods.
const DefaultTombstoneRetention = 30 * 24 * time.Hour

// winner returns the best-ranked branch by one scan, sharing its backing.
func winner(revs []Revision) (Revision, bool) {
	if len(revs) == 0 {
		return Revision{}, false
	}
	best := 0
	for i := 1; i < len(revs); i++ {
		if outranks(&revs[i], &revs[best]) {
			best = i
		}
	}
	return revs[best], true
}

// sortRevisions orders branches best-first.
func sortRevisions(revs []Revision) {
	sort.Slice(revs, func(i, j int) bool { return outranks(&revs[i], &revs[j]) })
}

// outranks is the branch order: longer history wins, then the
// lexicographically larger head id (arbitrary but deterministic across
// replicas), so every replica picks the same winner among concurrent
// branches.
func outranks(a, b *Revision) bool {
	if len(a.Version) != len(b.Version) {
		return len(a.Version) > len(b.Version)
	}
	ah, errA := a.Version.Head()
	bh, errB := b.Version.Head()
	if errA != nil || errB != nil {
		return errA == nil
	}
	return bytes.Compare(ah[:], bh[:]) > 0
}

func cloneRevision(r Revision) Revision {
	out := r
	out.Version = r.Version.Clone()
	out.Value = append([]byte(nil), r.Value...)
	return out
}
