// Package wal is the crash-consistency layer of the live runtime: a
// segmented, append-only write-ahead log for store updates and frontier
// adoptions.
//
// The paper's propagation guarantees assume replicas whose applied state
// survives failures; this package makes that true on real disks. Every
// record is framed as
//
//	len uint32 | crc uint32 | body
//
// with a CRC32-Castagnoli checksum over the body, and the body reuses the
// internal/wire binary codec (a logged update is the same bytes it
// travelled as). Records accumulate in numbered segment files
// (wal-00000001.seg, wal-00000002.seg, ...), each starting with an 8-byte
// magic header. A segment is sealed — fsynced (unless the policy is
// SyncNever), closed, never written again — before its successor is
// created, and each process's first write creates one past all on disk:
// only the newest segment at a crash can hold a torn tail, recovery never
// writes to one, and a restart without writes adds none.
//
// Durability is a policy, not a constant: SyncAlways fsyncs before every
// append acknowledges (group commit batches concurrent appenders under one
// fsync), SyncInterval fsyncs on a timer bounding the loss window, and
// SyncNever leaves flushing to the kernel. Whatever the policy, bytes are
// written to the kernel before an append returns, so state survives process
// kills under every policy; fsync only widens the crash types covered to
// power loss and kernel panics.
//
// Recovery is one read-only pass. Open reads no record and changes no
// existing file. Replay reads the checkpoint, then the segments that existed
// at Open; each segment replays up to its first invalid record (bad header,
// short record, implausible length, bad CRC), and the bytes from there to its
// end are counted, not repaired. Checkpoint bounds the log: it seals the
// active segment, writes a segment image of the store (WriteCheckpoint)
// atomically next to the segments, and prunes every segment older than the
// seal, so any damage in the image fails Replay before a record is delivered.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

// The fsync policies, cheapest guarantee last.
const (
	// SyncAlways fsyncs before every Append returns. Concurrent appenders
	// are group-committed: one fsync covers every record written before it
	// started, so the per-append cost amortizes under load.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.Interval), bounding the
	// post-crash loss window to at most one interval of acknowledged
	// writes. Appends return as soon as the kernel has the bytes.
	SyncInterval
	// SyncNever fsyncs neither appends, nor sealed segments, nor the
	// directory entry of a new segment, nor at Open; only Close and the
	// checkpoint file are fsynced. State survives process kills (the page
	// cache persists) but not power loss.
	SyncNever
)

// policyNames spells each policy the way the -fsync daemon flag does.
var policyNames = [...]string{SyncAlways: "always", SyncInterval: "interval", SyncNever: "never"}

// String names the policy the way the -fsync daemon flag spells it.
func (p SyncPolicy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -fsync flag spellings to policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range policyNames {
		if name == s {
			return SyncPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Metrics is the counter sink the log reports to; it matches the live
// adapter's metrics interface so one registry serves both.
type Metrics interface {
	// Inc adds one to the named counter.
	Inc(name string)
	// Add adds delta to the named counter.
	Add(name string, delta float64)
}

// The wal.* counter names. Everything is monotonic.
const (
	// MetricAppends counts records appended.
	MetricAppends = "wal.appends"
	// MetricAppendBytes counts bytes appended (framing included).
	MetricAppendBytes = "wal.append_bytes"
	// MetricAppendErrors counts appends that failed; after the first the
	// log is wedged and every later append fails fast.
	MetricAppendErrors = "wal.append_errors"
	// MetricFsyncs counts fsync calls; appends ÷ fsyncs is the group-commit
	// batching factor under SyncAlways.
	MetricFsyncs = "wal.fsyncs"
	// MetricRotations counts segment seals.
	MetricRotations = "wal.rotations"
	// MetricCheckpoints counts completed checkpoints.
	MetricCheckpoints = "wal.checkpoints"
	// MetricCheckpointErrors counts failed checkpoints.
	MetricCheckpointErrors = "wal.checkpoint_errors"
	// MetricSegmentsPruned counts segments deleted by checkpoints.
	MetricSegmentsPruned = "wal.segments_pruned"
	// MetricReplayed counts recovery records that grew the store
	// (reported by the live adapter during RecoverWAL).
	MetricReplayed = "wal.replayed"
	// MetricReplayDuplicates counts recovery records the store already
	// covered (reported by the live adapter during RecoverWAL).
	MetricReplayDuplicates = "wal.replay_duplicates"
	// MetricRecoverTruncatedBytes counts the segment bytes Replay did not
	// replay: each segment's bytes from its first invalid record to its end.
	MetricRecoverTruncatedBytes = "wal.recover_truncated_bytes"
	// MetricRecoverSkippedRecords counts checksum-valid records whose body
	// failed to decode during Replay and were skipped.
	MetricRecoverSkippedRecords = "wal.recover_skipped_records"
)

// CounterNames lists every counter the log reports, for registry
// preregistration and the documentation drift guard.
var CounterNames = []string{
	MetricAppends,
	MetricAppendBytes,
	MetricAppendErrors,
	MetricFsyncs,
	MetricRotations,
	MetricCheckpoints,
	MetricCheckpointErrors,
	MetricSegmentsPruned,
	MetricReplayed,
	MetricReplayDuplicates,
	MetricRecoverTruncatedBytes,
	MetricRecoverSkippedRecords,
}

// Defaults for zero Options fields.
const (
	// DefaultSyncInterval is the SyncInterval flush cadence when
	// Options.Interval is zero.
	DefaultSyncInterval = 5 * time.Millisecond
	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 8 << 20
	// MaxRecordBytes bounds a single record body; a length prefix above it
	// is treated as tail damage, not an allocation request.
	MaxRecordBytes = 64 << 20
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// crcTable is the Castagnoli table shared by append and recovery.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir is the directory holding the segments and the checkpoint, a
	// segment image. It is created if missing. Required.
	Dir string
	// Policy selects the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval flush cadence; zero means
	// DefaultSyncInterval.
	Interval time.Duration
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one started; zero means DefaultSegmentBytes.
	SegmentBytes int64
	// Metrics receives the wal.* counters; nil discards them.
	Metrics Metrics
}

// ReplayStats reports what Replay visited.
type ReplayStats struct {
	// Records is the number of records delivered to the callback.
	Records int
	// Skipped is the number of checksum-valid records whose body failed to
	// decode and were skipped.
	Skipped int
	// TruncatedBytes is how many bytes of the replayed segments lie at or
	// past each one's first invalid record and were not replayed.
	TruncatedBytes int64
}

// RecordKind discriminates WAL record bodies.
type RecordKind byte

// The record kinds.
const (
	// RecordUpdate is a store update (wire.AppendStoreUpdate body).
	RecordUpdate RecordKind = 1
	// RecordFrontier is an adopted compaction frontier (wire.AppendClock
	// body): a snapshot catch-up's, or a checkpointed store's watermark.
	RecordFrontier RecordKind = 2
)

// Record is one replayed WAL entry. Kind selects which payload field is
// meaningful.
type Record struct {
	// Kind discriminates the payload.
	Kind RecordKind
	// Update is the logged update for RecordUpdate.
	Update store.Update
	// Frontier is the adopted clock for RecordFrontier.
	Frontier version.Clock
}

// sealedSeg is a segment no longer appended to and the byte size Size()
// accounts for it.
type sealedSeg struct {
	idx  uint64
	size int64
}

// Log is a write-ahead log over one directory. All methods are safe for
// concurrent use.
type Log struct {
	dir      string
	policy   SyncPolicy
	interval time.Duration
	segBytes int64
	metrics  Metrics

	// openIdx is the first segment this Open created; Replay reads the
	// segments below it.
	openIdx uint64

	// failed latches the first unrecoverable I/O error; once set, every
	// append fails fast with it. Stored as error via atomic.Value.
	failed atomic.Value

	// closed flips once in Close; read lock-free by sync waiters.
	closed atomic.Bool

	// mu guards the append state: the active file, sizes, sequence
	// numbers, and the sealed-segment list.
	mu      sync.Mutex
	f       *os.File // nil until a write after Open or a seal creates segIdx
	segIdx  uint64
	segSize int64
	total   int64
	sealed  []sealedSeg // ascending by index
	seq     uint64      // records appended this process
	scratch []byte

	// fsyncMu serializes fsync against sealing: a sealer syncs and closes
	// the outgoing file under it, so a group-commit syncer that loses the
	// race observes ErrClosed and knows its records are already durable.
	fsyncMu sync.Mutex

	// sm guards the group-commit state.
	sm        sync.Mutex
	syncCond  *sync.Cond
	syncedSeq uint64
	syncing   bool

	stopInterval chan struct{}
	intervalDone chan struct{}
}

// Open creates the log in o.Dir, or opens the one there without reading or
// changing any existing segment: the first append creates a new segment
// numbered one past the highest on disk. The returned log is ready for
// Append; call Replay first when recovering state.
func Open(o Options) (*Log, error) {
	if o.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if o.Interval <= 0 {
		o.Interval = DefaultSyncInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SegmentBytes < headerSize+minRecordBytes {
		return nil, fmt.Errorf("wal: SegmentBytes %d is below the %d-byte minimum", o.SegmentBytes, headerSize+minRecordBytes)
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", o.Dir, err)
	}
	l := &Log{
		dir:      o.Dir,
		policy:   o.Policy,
		interval: o.Interval,
		segBytes: o.SegmentBytes,
		metrics:  o.Metrics,
		openIdx:  1,
	}
	l.syncCond = sync.NewCond(&l.sm)
	segs, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	if n := len(segs); n > 0 {
		// The process that last appended to the newest segment may have
		// died with its bytes in the page cache, and no append of ours will
		// fsync that file, so make it durable now.
		if l.policy != SyncNever {
			if err := syncPath(segmentPath(o.Dir, segs[n-1].idx)); err != nil {
				return nil, err
			}
			l.inc(MetricFsyncs)
		}
		l.openIdx = segs[n-1].idx + 1
	}
	l.sealed = segs
	for _, s := range segs {
		l.total += s.size
	}
	l.segIdx, l.segSize = l.openIdx, headerSize
	if l.policy == SyncInterval {
		l.stopInterval = make(chan struct{})
		l.intervalDone = make(chan struct{})
		go l.intervalLoop()
	}
	return l, nil
}

// maxRetainedScratch caps the framing buffer kept between appends.
const maxRetainedScratch = 1 << 20

// Append logs store updates in order, one record each, written to the kernel
// with one write per segment the call touches before it returns; under
// SyncAlways also fsynced (group-committed) first. MetricAppends counts
// records. A record over MaxRecordBytes is refused alone, its error returned.
// An I/O error wedges the log: every later append returns it.
func (l *Log) Append(us ...store.Update) error {
	return l.appendRecords(len(us), func(dst []byte, i int) []byte {
		return updateBody(dst, us[i])
	})
}

// AppendFrontier logs a wholesale frontier adoption (snapshot catch-up), so
// recovery can restore the compaction watermark a snapshot installed.
func (l *Log) AppendFrontier(c version.Clock) error {
	return l.appendRecords(1, func(dst []byte, _ int) []byte {
		return frontierBody(dst, c)
	})
}

// updateBody and frontierBody append the body of an update record and of a
// frontier record to dst.
func updateBody(dst []byte, u store.Update) []byte {
	return wire.AppendStoreUpdate(append(dst, byte(RecordUpdate)), u)
}

func frontierBody(dst []byte, c version.Clock) []byte {
	return wire.AppendClock(append(dst, byte(RecordFrontier)), c)
}

// appendRecord frames record i onto b: its length and checksum, then the body
// mk appends. A body over MaxRecordBytes is refused, and b returned as it was.
func appendRecord(b []byte, i int, mk func(dst []byte, i int) []byte) ([]byte, error) {
	start := len(b)
	b = mk(append(b, 0, 0, 0, 0, 0, 0, 0, 0), i)
	body := b[start+recordHeaderSize:]
	if len(body) > MaxRecordBytes {
		return b[:start], fmt.Errorf("wal: record body %d bytes exceeds MaxRecordBytes", len(body))
	}
	putU32(b[start:start+4], uint32(len(body)))
	putU32(b[start+4:start+8], crc32.Checksum(body, crcTable))
	return b, nil
}

// WriteCheckpoint writes a checkpoint to w as a segment image: the segment
// header, each of us as an update record, then frontier as one frontier
// record. Replaying it through the store's apply path, the frontier adopted
// last, rebuilds the store us and frontier were read from.
func WriteCheckpoint(w io.Writer, us []store.Update, frontier version.Clock) error {
	mk := func(dst []byte, i int) []byte {
		if i < len(us) {
			return updateBody(dst, us[i])
		}
		return frontierBody(dst, frontier)
	}
	b := segmentHeader()
	for i := 0; i <= len(us); i++ {
		var err error
		if b, err = appendRecord(b, i, mk); err != nil {
			return err
		}
		if len(b) >= 64<<10 || i == len(us) {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	return nil
}

// appendRecords frames n records, record i's body appended to dst by mk,
// writes them, and (policy permitting) syncs once for all of them.
func (l *Log) appendRecords(n int, mk func(dst []byte, i int) []byte) error {
	if err := l.loadFailed(); err != nil {
		l.inc(MetricAppendErrors)
		return err
	}
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return ErrClosed
	}
	records, size, refused, err := l.writeRecordsLocked(n, mk)
	l.seq += uint64(records)
	seq := l.seq
	l.fail(err) // under mu: syncOnce never sees a failed write unlatched
	l.mu.Unlock()
	if err != nil {
		l.inc(MetricAppendErrors)
		return err
	}
	l.count(MetricAppends, float64(records))
	l.count(MetricAppendBytes, float64(size))
	if records > 0 && l.policy == SyncAlways {
		if err := l.waitSynced(seq); err != nil {
			return err
		}
	}
	if refused != nil {
		l.inc(MetricAppendErrors)
	}
	return refused
}

// writeRecordsLocked frames records into the scratch buffer and writes them,
// one write per segment: a record that would overflow a segment already
// holding one opens the successor once what precedes it is written.
func (l *Log) writeRecordsLocked(n int, mk func(dst []byte, i int) []byte) (records, size int, refused, err error) {
	b := l.scratch[:0]
	defer func() {
		if l.scratch = b[:0]; cap(b) > maxRetainedScratch {
			l.scratch = nil
		}
	}()
	for i := 0; i < n; i++ {
		start := len(b)
		var tooBig error
		if b, tooBig = appendRecord(b, i, mk); tooBig != nil {
			refused = tooBig
			continue
		}
		framed := len(b) - start
		if l.segSize+int64(len(b)) > l.segBytes && l.segSize+int64(start) > headerSize {
			if err = l.writeLocked(b[:start]); err == nil {
				err = l.sealLocked()
			}
			if err != nil {
				return records, size, refused, err
			}
			b = b[:copy(b, b[start:])]
		}
		records++
		size += framed
	}
	return records, size, refused, l.writeLocked(b)
}

// writeLocked writes framed records to the active segment, creating it if
// they are its first. Callers hold l.mu.
func (l *Log) writeLocked(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if l.f == nil {
		if err := l.createSegmentLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += int64(len(b))
	l.total += int64(len(b))
	return nil
}

// Sync forces the active segment to stable storage, returning once every
// record appended before the call is durable. Under SyncNever, records in
// segments sealed earlier may still be unsynced.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	return l.waitSynced(seq)
}

// waitSynced blocks until syncedSeq covers seq, electing itself the syncer
// when nobody else is mid-fsync. This is the group commit: one fsync
// covers every record appended before it started, and the waiters all
// observe the advanced syncedSeq.
func (l *Log) waitSynced(seq uint64) error {
	l.sm.Lock()
	for {
		if l.syncedSeq >= seq {
			l.sm.Unlock()
			return nil
		}
		if err := l.loadFailed(); err != nil {
			l.sm.Unlock()
			return err
		}
		if l.closed.Load() {
			// Close syncs everything; if we are here with closed set and
			// syncedSeq behind, Close's final sync failed.
			l.sm.Unlock()
			return ErrClosed
		}
		if !l.syncing {
			l.syncing = true
			l.sm.Unlock()
			err := l.syncOnce()
			l.sm.Lock()
			l.syncing = false
			l.syncCond.Broadcast()
			if err != nil {
				l.sm.Unlock()
				return err
			}
			continue
		}
		l.syncCond.Wait()
	}
}

// syncOnce fsyncs the active segment and advances syncedSeq to cover every
// record appended before it started. A sealer racing us closes the file
// under fsyncMu after syncing it, so ErrClosed here means the records are
// already durable; without an active segment, all are in sealed segments.
func (l *Log) syncOnce() error {
	l.mu.Lock()
	f, seq, closed, failed := l.f, l.seq, l.closed.Load(), l.loadFailed()
	l.mu.Unlock()
	if closed || failed != nil {
		return nil
	}
	if f == nil {
		l.advanceSynced(seq)
		return nil
	}
	l.fsyncMu.Lock()
	err := f.Sync()
	l.fsyncMu.Unlock()
	if err != nil {
		if errors.Is(err, os.ErrClosed) {
			l.advanceSynced(seq)
			return nil
		}
		l.fail(err)
		return err
	}
	l.inc(MetricFsyncs)
	l.advanceSynced(seq)
	return nil
}

// advanceSynced raises the durable sequence watermark and wakes waiters.
func (l *Log) advanceSynced(seq uint64) {
	l.sm.Lock()
	if seq > l.syncedSeq {
		l.syncedSeq = seq
	}
	l.syncCond.Broadcast()
	l.sm.Unlock()
}

// intervalLoop is the SyncInterval flusher.
func (l *Log) intervalLoop() {
	t := time.NewTicker(l.interval)
	defer t.Stop()
	defer close(l.intervalDone)
	for {
		select {
		case <-t.C:
			if err := l.Sync(); err != nil {
				// The error is latched; appenders see it. Keep ticking so a
				// Close can still drain us.
				continue
			}
		case <-l.stopInterval:
			return
		}
	}
}

// sealLocked closes the active segment, if any, fsynced first unless the
// policy is SyncNever; the next write creates its successor. Callers hold l.mu. On error the log
// must be wedged by the caller before it releases l.mu.
func (l *Log) sealLocked() error {
	if l.f == nil {
		return nil
	}
	l.fsyncMu.Lock()
	var err error
	if l.policy != SyncNever {
		if err = l.f.Sync(); err == nil {
			l.inc(MetricFsyncs)
		}
	}
	cerr := l.f.Close()
	l.fsyncMu.Unlock()
	if err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: sealing segment %d: %w", l.segIdx, err)
	}
	if l.policy != SyncNever {
		// Everything appended so far now sits in sealed, synced segments.
		l.advanceSynced(l.seq)
	}
	l.sealed = append(l.sealed, sealedSeg{idx: l.segIdx, size: l.segSize})
	l.inc(MetricRotations)
	l.segIdx, l.segSize = l.segIdx+1, headerSize
	return nil
}

// createSegmentLocked creates segment segIdx, header only, and makes it
// active. Callers hold l.mu.
func (l *Log) createSegmentLocked() error {
	path := segmentPath(l.dir, l.segIdx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", path, err)
	}
	if _, err := f.Write(segmentHeader()); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing header of %s: %w", path, err)
	}
	if l.policy != SyncNever {
		if err := syncPath(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	l.total += headerSize
	return nil
}

// Checkpoint bounds the log: it seals the active segment, writes the
// checkpoint atomically to CheckpointPath via write (Replay accepts what
// WriteCheckpoint writes), and prunes every segment older than the seal,
// returning how many it pruned. write runs after the seal and records follow
// their store apply, so what it reads covers every pruned record.
func (l *Log) Checkpoint(write func(io.Writer) error) (pruned int, err error) {
	defer func() {
		if err != nil {
			l.inc(MetricCheckpointErrors)
		} else {
			l.inc(MetricCheckpoints)
		}
	}()
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if err := l.sealLocked(); err != nil {
		l.fail(err)
		l.mu.Unlock()
		return 0, err
	}
	boundary := l.segIdx
	l.mu.Unlock()
	if err := WriteFileAtomic(l.CheckpointPath(), write); err != nil {
		return 0, fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	return l.pruneBefore(boundary)
}

// pruneBefore removes every sealed segment with index < boundary.
func (l *Log) pruneBefore(boundary uint64) (int, error) {
	l.mu.Lock()
	n := 0 // sealed is ascending by index
	for n < len(l.sealed) && l.sealed[n].idx < boundary {
		n++
	}
	drop := append([]sealedSeg(nil), l.sealed[:n]...)
	l.sealed = append(l.sealed[:0], l.sealed[n:]...)
	l.mu.Unlock()
	var firstErr error
	removed := 0
	var freed int64
	for _, s := range drop {
		path := segmentPath(l.dir, s.idx)
		if err := os.Remove(path); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: pruning %s: %w", path, err)
			}
			continue
		}
		freed += s.size
		removed++
	}
	if removed > 0 {
		if l.policy != SyncNever {
			if err := syncPath(l.dir); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		l.count(MetricSegmentsPruned, float64(removed))
		l.mu.Lock()
		l.total -= freed
		l.mu.Unlock()
	}
	return removed, firstErr
}

// Replay streams the records of the checkpoint, then those of every segment
// that existed when Open ran, oldest first, stopping at the first callback
// error. A checkpoint that does not read whole fails Replay, naming the file,
// before any record is delivered. Records appended after Open are not
// visited, so recovery can overlap live traffic without replaying it into
// itself. Each segment replays up to its first invalid record; the bytes
// from there to its end are counted in TruncatedBytes and are reported again
// at every recovery until a checkpoint prunes their segment. Checksum-valid
// segment bodies that fail to decode are skipped and counted, never
// delivered. A reader goroutine decodes the next batches while fn runs on
// the caller's goroutine, and has exited when Replay returns.
func (l *Log) Replay(fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	l.mu.Lock()
	var segs []sealedSeg
	for _, s := range l.sealed {
		if s.idx < l.openIdx {
			segs = append(segs, s)
		}
	}
	l.mu.Unlock()
	// Three recycled batches of 256 records: the reader runs at most three
	// batches ahead, and as either channel holds all of them no send blocks.
	free, full := make(chan []Record, 3), make(chan []Record, 3)
	for i := 0; i < cap(free); i++ {
		free <- make([]Record, 0, 256)
	}
	var err, readErr error
	var truncated int64
	go func() {
		truncated, readErr = l.readBatches(segs, free, full)
		close(full)
	}()
	for b := range full {
		if err != nil {
			continue // drain until the reader has exited
		}
		for _, rec := range b {
			if rec.Kind == 0 {
				st.Skipped++
				continue
			}
			st.Records++
			if err = fn(rec); err != nil {
				close(free) // stops the reader
				break
			}
		}
		if err == nil {
			clear(b)
			free <- b[:0]
		}
	}
	if err == nil {
		err = readErr
	}
	st.TruncatedBytes = truncated
	if err != nil {
		return st, err
	}
	if st.Skipped > 0 {
		l.count(MetricRecoverSkippedRecords, float64(st.Skipped))
	}
	if st.TruncatedBytes > 0 {
		l.count(MetricRecoverTruncatedBytes, float64(st.TruncatedBytes))
	}
	return st, nil
}

// errReplayStopped ends the reader once Replay has closed the free channel.
var errReplayStopped = errors.New("wal: replay stopped")

// readBatches is Replay's reader: it decodes the checkpoint's records, then
// those of segs, the zero Record for a segment body that does not decode,
// into batches taken from free and sends them on full in log order, and
// returns the bytes it did not replay. It stops when the segments end, a
// file fails to read, or free is closed. A segment no longer than its header
// holds no record and is not opened.
func (l *Log) readBatches(segs []sealedSeg, free <-chan []Record, full chan<- []Record) (truncated int64, err error) {
	ckpt, err := readCheckpoint(l.CheckpointPath())
	if err != nil {
		return 0, err
	}
	b := <-free
	add := func(rec Record) error {
		if b = append(b, rec); len(b) < cap(b) {
			return nil
		}
		full <- b
		var ok bool
		if b, ok = <-free; !ok {
			return errReplayStopped
		}
		return nil
	}
	for _, rec := range ckpt {
		if err = add(rec); err != nil {
			return 0, err
		}
	}
	for _, seg := range segs {
		if seg.size <= headerSize {
			continue
		}
		var valid int64
		if valid, err = replaySegment(segmentPath(l.dir, seg.idx), seg.size, add); err != nil {
			break
		}
		truncated += seg.size - valid
	}
	if len(b) > 0 {
		full <- b
	}
	return truncated, err
}

// CheckpointPath is where Checkpoint writes the checkpoint.
func (l *Log) CheckpointPath() string { return filepath.Join(l.dir, "checkpoint.snap") }

// Size is the resident byte size of all segments (headers included). The
// live adapter compares it against its checkpoint threshold.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Segments is the number of on-disk segment files (sealed plus active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return len(l.sealed)
	}
	return len(l.sealed) + 1
}

// Close syncs and closes the active segment, if one was created. Further
// appends return ErrClosed; Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return nil
	}
	l.closed.Store(true)
	f := l.f
	seq := l.seq
	l.mu.Unlock()
	if l.stopInterval != nil {
		close(l.stopInterval)
		<-l.intervalDone
	}
	var err error
	if f != nil {
		l.fsyncMu.Lock()
		err = f.Sync()
		cerr := f.Close()
		l.fsyncMu.Unlock()
		if err == nil {
			err = cerr
		}
		if err == nil {
			l.inc(MetricFsyncs)
		}
	}
	if err == nil {
		l.advanceSynced(seq)
	} else {
		l.fail(err)
		// Wake waiters so they observe the latched error.
		l.sm.Lock()
		l.syncCond.Broadcast()
		l.sm.Unlock()
	}
	return err
}

// fail latches the first unrecoverable error and wakes sync waiters.
func (l *Log) fail(err error) {
	if err == nil {
		return
	}
	if l.failed.Load() == nil {
		l.failed.Store(err)
	}
	l.sm.Lock()
	l.syncCond.Broadcast()
	l.sm.Unlock()
}

// loadFailed returns the latched error, if any.
func (l *Log) loadFailed() error {
	err, _ := l.failed.Load().(error)
	return err
}

func (l *Log) inc(name string) {
	if l.metrics != nil {
		l.metrics.Inc(name)
	}
}

func (l *Log) count(name string, delta float64) {
	if l.metrics != nil {
		l.metrics.Add(name, delta)
	}
}
