package live

import (
	"errors"
	"io"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
)

// DefaultWALCheckpointBytes is the resident-WAL size that triggers a janitor
// checkpoint when Config.WALCheckpointBytes is zero.
const DefaultWALCheckpointBytes = 16 << 20

// walCheckpointSegments is the segment count past which the janitor
// checkpoints whatever the log's size: each restart that writes starts a
// segment, and frequent restarts with few writes would pile up files.
const walCheckpointSegments = 64

// WALRecovery reports what RecoverWAL restored from disk.
type WALRecovery struct {
	// Replayed is the number of replayed records, the checkpoint's included,
	// that grew the store: the updates recovery installed.
	Replayed int
	// Duplicates is the number of replayed records the store already
	// covered (a crash between apply and ack logs twice; Apply is
	// idempotent per (origin, seq), so these are expected and harmless).
	Duplicates int
	// Frontiers is the number of frontier-adoption records replayed.
	Frontiers int
	// TruncatedBytes is how many bytes of torn or damaged segments recovery
	// did not replay.
	TruncatedBytes int64
}

// walAppend logs applied updates to the write-ahead log, if one is
// configured. Local writes propagate the error to the caller (the write is
// not durable); ingest paths proceed — the apply already happened and the
// failure is latched and counted by the log itself.
func (r *Replica) walAppend(us ...store.Update) error {
	if r.cfg.WAL == nil || len(us) == 0 {
		return nil
	}
	return r.cfg.WAL.Append(us...)
}

// walAppendApplied logs, in one WAL call, every update sc.us[i] of an
// ingested run whose apply sc.pre[i] was not a duplicate, gathered in
// sc.fresh. Like every ingest path it ignores errors.
func (r *Replica) walAppendApplied(sc *ingestScratch) {
	if r.cfg.WAL == nil {
		return
	}
	sc.fresh = sc.fresh[:0]
	for i := range sc.us {
		if sc.pre[i].Res != store.Duplicate {
			sc.fresh = append(sc.fresh, sc.us[i])
		}
	}
	_ = r.walAppend(sc.fresh...)
}

// walAppendFrontier logs a wholesale frontier adoption (snapshot catch-up).
func (r *Replica) walAppendFrontier(c version.Clock) {
	if r.cfg.WAL == nil || len(c) == 0 {
		return
	}
	_ = r.cfg.WAL.AppendFrontier(c)
}

// RecoverWAL restores the replica's state from the configured write-ahead
// log: one Replay — the checkpoint's records, then the surviving segments' —
// through the normal store apply path, so clocks, branch counts, and the
// writer's sequence counter end up exactly as a clean restart would leave
// them. Call before Start, and before registering store apply hooks that must
// not observe recovery traffic. Duplicated records (a crash between apply
// and ack) are absorbed by the store and counted, not errors.
func (r *Replica) RecoverWAL() (WALRecovery, error) {
	var rec WALRecovery
	l := r.cfg.WAL
	if l == nil {
		return rec, errors.New("live: no WAL configured")
	}
	st, err := l.Replay(func(record wal.Record) error {
		switch record.Kind {
		case wal.RecordUpdate:
			res, _ := r.st.ApplyObserved(record.Update)
			if res == store.Duplicate {
				rec.Duplicates++
			} else {
				rec.Replayed++
			}
		case wal.RecordFrontier:
			r.st.AdoptFrontier(record.Frontier)
			rec.Frontiers++
		}
		return nil
	})
	if err != nil {
		return rec, err
	}
	// The log may carry our own origin past the writer's counter; never
	// reuse sequence numbers after a restart.
	r.writer.Resync()
	rec.TruncatedBytes = st.TruncatedBytes
	r.add(wal.MetricReplayed, rec.Replayed)
	r.add(wal.MetricReplayDuplicates, rec.Duplicates)
	return rec, nil
}

// CheckpointWAL bounds the write-ahead log now: it seals the active
// segment, writes the store's log image as WAL records atomically into the
// WAL directory, and prunes the sealed segments the image covers. The
// janitor calls this when the log outgrows Config.WALCheckpointBytes; tests
// and operators may call it directly.
func (r *Replica) CheckpointWAL() (int, error) {
	if r.cfg.WAL == nil {
		return 0, errors.New("live: no WAL configured")
	}
	return r.cfg.WAL.Checkpoint(func(w io.Writer) error {
		us, compacted := r.st.LogImage()
		return wal.WriteCheckpoint(w, us, compacted)
	})
}

// maybeCheckpointWAL runs a checkpoint when the log has outgrown the
// configured threshold or holds more than walCheckpointSegments segments.
// Failures are latched and counted by the log itself; the janitor retries
// on its next pass.
func (r *Replica) maybeCheckpointWAL() {
	l := r.cfg.WAL
	if l == nil {
		return
	}
	limit := orDefault(r.cfg.WALCheckpointBytes, DefaultWALCheckpointBytes)
	if l.Size() < limit && l.Segments() <= walCheckpointSegments {
		return
	}
	_, _ = r.CheckpointWAL()
}
