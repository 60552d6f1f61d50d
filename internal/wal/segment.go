package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/p2pgossip/update/internal/wire"
)

// Segment file framing constants.
const (
	// headerSize is the length of the per-segment magic header.
	headerSize = 8
	// recordHeaderSize is the length + crc prefix of every record.
	recordHeaderSize = 8
	// minRecordBytes is the smallest useful record (header + 1-byte body);
	// Open rejects segment size limits that could not hold one.
	minRecordBytes = recordHeaderSize + 1
	// segmentVersion is the on-disk format version byte in the header.
	segmentVersion = 1
)

// segmentMagic identifies a pushpull WAL segment.
var segmentMagic = []byte{'P', 'P', 'W', 'A', 'L'}

// segmentHeader returns the 8-byte header every segment starts with:
// 5 magic bytes, a format version, two reserved zero bytes.
func segmentHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, segmentMagic)
	h[len(segmentMagic)] = segmentVersion
	return h
}

// segmentPath names segment idx inside dir.
func segmentPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", idx))
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var idxs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil || idx == 0 {
			continue
		}
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// putU32 writes x big-endian into b[:4].
func putU32(b []byte, x uint32) { binary.BigEndian.PutUint32(b, x) }

// scanResult is what scanSegment found.
type scanResult struct {
	// fileSize is the raw on-disk size.
	fileSize int64
	// validLen is the offset just past the last checksum-valid record (or
	// past the header when no record is valid; zero when the header itself
	// is damaged).
	validLen int64
	// records is the number of checksum-valid records.
	records int
	// damage describes why scanning stopped before fileSize; empty means
	// the segment is clean to the end.
	damage string
}

// scanSegment walks a segment's records, validating framing and checksums,
// and reports the last valid boundary. It never modifies the file.
func scanSegment(path string) (scanResult, error) {
	var res scanResult
	f, err := os.Open(path)
	if err != nil {
		return res, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	res.fileSize = fi.Size()
	br := bufio.NewReaderSize(f, 64<<10)
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			res.damage = "short header"
			return res, nil
		}
		return res, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	if !bytes.Equal(hdr, segmentHeader()) {
		res.damage = "bad header magic"
		return res, nil
	}
	res.validLen = headerSize
	var pre [recordHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			if err == io.EOF {
				return res, nil // clean end on a record boundary
			}
			if err == io.ErrUnexpectedEOF {
				res.damage = "torn record header"
				return res, nil
			}
			return res, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		n := binary.BigEndian.Uint32(pre[0:4])
		crc := binary.BigEndian.Uint32(pre[4:8])
		if n == 0 || n > MaxRecordBytes {
			res.damage = fmt.Sprintf("implausible record length %d", n)
			return res, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.damage = "torn record body"
				return res, nil
			}
			return res, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if crc32.Checksum(body, crcTable) != crc {
			res.damage = "crc mismatch"
			return res, nil
		}
		res.validLen += recordHeaderSize + int64(n)
		res.records++
	}
}

// replaySegment streams the records of one segment up to limit (the replay
// horizon frozen at Open), decoding bodies and invoking fn, with the zero
// Record for a body that does not decode. The records were
// checksum-validated by scanSegment; a framing or checksum failure here
// means the file changed under us and is an error, not salvage.
func replaySegment(path string, limit int64, fn func(Record) error) error {
	if limit <= headerSize {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: replay opening %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(io.NewSectionReader(f, headerSize, limit-headerSize), 64<<10)
	var pre [recordHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("wal: replay %s: %w", path, err)
		}
		n := binary.BigEndian.Uint32(pre[0:4])
		crc := binary.BigEndian.Uint32(pre[4:8])
		if n == 0 || n > MaxRecordBytes {
			return fmt.Errorf("wal: replay %s: implausible record length %d inside validated region", path, n)
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return fmt.Errorf("wal: replay %s: %w", path, err)
		}
		if crc32.Checksum(body, crcTable) != crc {
			return fmt.Errorf("wal: replay %s: checksum mismatch inside validated region", path)
		}
		if err := fn(decodeRecord(body)); err != nil {
			return err
		}
	}
}

// decodeRecord parses a checksum-valid record body. It returns the zero
// Record when the kind is unknown or the payload does not decode — the
// record is skipped, never delivered half-parsed.
func decodeRecord(body []byte) Record {
	payload := body[1:]
	switch RecordKind(body[0]) {
	case RecordUpdate:
		if u, err := wire.DecodeStoreUpdate(payload); err == nil {
			return Record{Kind: RecordUpdate, Update: u}
		}
	case RecordFrontier:
		if c, err := wire.DecodeClock(payload); err == nil {
			return Record{Kind: RecordFrontier, Frontier: c}
		}
	}
	return Record{}
}
