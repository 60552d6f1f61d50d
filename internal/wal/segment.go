package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
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

// listSegments returns the segments present in dir and their sizes,
// ascending by index.
func listSegments(dir string) ([]sealedSeg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []sealedSeg
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil || idx == 0 {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: stat %s: %w", segmentPath(dir, idx), err)
		}
		segs = append(segs, sealedSeg{idx: idx, size: fi.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// putU32 writes x big-endian into b[:4].
func putU32(b []byte, x uint32) { binary.BigEndian.PutUint32(b, x) }

// replaySegment streams the records of one segment of size bytes, decoding
// bodies and invoking fn, with the zero Record for a body that does not
// decode. It stops at the first invalid record — a bad segment header, a
// torn record header or body, an implausible length, or a checksum mismatch
// — and returns the offset where the valid records end. Only a read error or
// fn's error is returned as an error.
func replaySegment(path string, size int64, fn func(Record) error) (valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: replay opening %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || !bytes.Equal(hdr[:], segmentHeader()) {
		return 0, readError(path, err)
	}
	valid = headerSize
	var pre [recordHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			return valid, readError(path, err)
		}
		n := int64(binary.BigEndian.Uint32(pre[0:4]))
		// A length past the segment's end is a torn body; checking it
		// first keeps a garbage length from sizing the buffer.
		if n == 0 || n > MaxRecordBytes || valid+recordHeaderSize+n > size {
			return valid, nil
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, readError(path, err)
		}
		if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(pre[4:8]) {
			return valid, nil
		}
		if err := fn(decodeRecord(body)); err != nil {
			return valid, err
		}
		valid += recordHeaderSize + n
	}
}

// readCheckpoint decodes every record of the checkpoint at path, none if it
// is missing. The segments it replaced are pruned, so any damage, a body
// that does not decode included, is an error naming the file.
func readCheckpoint(path string) (recs []Record, err error) {
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	var valid int64
	if err == nil {
		valid, err = replaySegment(path, fi.Size(), func(rec Record) error {
			if rec.Kind == 0 {
				return errors.New("a record body does not decode")
			}
			recs = append(recs, rec)
			return nil
		})
	}
	if err == nil && (valid < headerSize || valid < fi.Size()) {
		err = errors.New("bad segment header, or a torn or checksum-failing record")
	}
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s unusable at byte %d: %w", path, valid, err)
	}
	return recs, nil
}

// readError maps a short read, the end of a segment's valid records, to nil
// and names the segment in any other read error.
func readError(path string, err error) error {
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return fmt.Errorf("wal: replay %s: %w", path, err)
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
