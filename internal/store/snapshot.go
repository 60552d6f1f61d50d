package store

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// snapshotUpdate is the serialised form of one logged update. Version ids
// travel as raw byte slices to keep the gob schema independent of the
// version.ID array length.
type snapshotUpdate struct {
	Origin  string
	Seq     uint64
	Key     string
	Value   []byte
	Delete  bool
	Version [][]byte
	Stamp   int64
}

// snapshotFrontier is one origin's compacted watermark in serialised form.
type snapshotFrontier struct {
	Origin string
	Seq    uint64
}

// snapshot is the on-disk form of a store: the complete resident update log
// plus the per-origin compacted watermark. Items, branches and the vector
// clock are derived state — replaying the log through Apply and adopting the
// watermark reconstructs them exactly (Apply is order-independent and
// idempotent, which the property tests assert). Compacted is nil for an
// uncompacted store, so its snapshot bytes are unchanged from format 1
// streams without the field.
type snapshot struct {
	FormatVersion int
	Updates       []snapshotUpdate
	Compacted     []snapshotFrontier
}

// snapshotFormatVersion guards against reading snapshots from incompatible
// future layouts.
const snapshotFormatVersion = 1

// encodeSnapshot serialises a complete, canonically ordered update log to w.
// Sharded feeds it MissingFor(nil) and its compacted watermark, whose
// (origin asc) order is independent of internal layout — so the bytes a
// snapshot produces depend only on the logical contents, never on shard
// count.
func encodeSnapshot(w io.Writer, updates []Update, compacted version.Clock) error {
	snap := snapshot{
		FormatVersion: snapshotFormatVersion,
		Updates:       make([]snapshotUpdate, len(updates)),
	}
	for i, u := range updates {
		versionBytes := make([][]byte, len(u.Version))
		for j, id := range u.Version {
			id := id
			versionBytes[j] = id[:]
		}
		snap.Updates[i] = snapshotUpdate{
			Origin: u.Origin, Seq: u.Seq, Key: u.Key, Value: u.Value,
			Delete: u.Delete, Version: versionBytes, Stamp: u.Stamp.UnixNano(),
		}
	}
	if len(compacted) > 0 {
		snap.Compacted = make([]snapshotFrontier, 0, len(compacted))
		for origin, seq := range compacted {
			if seq > 0 {
				snap.Compacted = append(snap.Compacted, snapshotFrontier{Origin: origin, Seq: seq})
			}
		}
		sort.Slice(snap.Compacted, func(i, j int) bool {
			return snap.Compacted[i].Origin < snap.Compacted[j].Origin
		})
		if len(snap.Compacted) == 0 {
			snap.Compacted = nil
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	return nil
}

// decodeSnapshot reads a snapshot stream back into its update log and
// compacted watermark (nil when the snapshot was uncompacted).
func decodeSnapshot(r io.Reader) ([]Update, version.Clock, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if snap.FormatVersion != snapshotFormatVersion {
		return nil, nil, fmt.Errorf("store: snapshot format %d unsupported (want %d)",
			snap.FormatVersion, snapshotFormatVersion)
	}
	updates := make([]Update, len(snap.Updates))
	for i, su := range snap.Updates {
		u := Update{
			Origin: su.Origin, Seq: su.Seq, Key: su.Key, Value: su.Value,
			Delete: su.Delete, Stamp: time.Unix(0, su.Stamp),
		}
		for _, raw := range su.Version {
			if len(raw) != version.IDSize {
				return nil, nil, fmt.Errorf("store: snapshot has version id of %d bytes", len(raw))
			}
			var id version.ID
			copy(id[:], raw)
			u.Version = append(u.Version, id)
		}
		updates[i] = u
	}
	var compacted version.Clock
	if len(snap.Compacted) > 0 {
		compacted = version.NewClock()
		for _, f := range snap.Compacted {
			compacted[f.Origin] = f.Seq
		}
	}
	return updates, compacted, nil
}
