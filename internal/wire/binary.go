package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// This file is the hand-rolled binary envelope codec — the format the
// transports actually speak. Layout (all multi-byte integers big-endian,
// uvarint is the unsigned LEB128 of encoding/binary):
//
//	frame    = len u32 | body                    len = length of body
//	body     = ver u8 | kind u8 | from str | payload
//	str      = uvarint n | n bytes
//	blob     = uvarint n | n bytes
//	i64      = 8 bytes big-endian (two's complement)
//	hist     = uvarint n | n × 16 bytes          version identifiers
//	clock    = uvarint n | n × (str origin, uvarint count)
//	update   = str origin | uvarint seq | str key | blob value |
//	           flags u8 (bit0 = delete) | hist version | i64 stamp
//
// Per-kind payloads:
//
//	push      = update | uvarint nRF × str | uvarint t
//	pull-req  = clock
//	pull-resp = uvarint nUpd × update | uvarint nPeers × str
//	ack       = str origin | uvarint seq
//	query     = i64 qid | str key
//	queryresp = i64 qid | str key | flags u8 (bit0 found, bit1 confident) |
//	            blob value | hist version
//	snapshot  = uvarint nUpd × update | uvarint stream | uvarint chunk |
//	            flags u8 (bit0 last) | clock frontier (last only) |
//	            uvarint nPeers × str
//
// The leading format-version byte exists for evolution: a node seeing an
// unknown version drops the connection instead of misparsing. The decoder
// bounds every count against the bytes actually remaining, so corrupt or
// hostile input cannot force allocation beyond the (already length-bounded)
// frame it arrived in, and a frame with trailing bytes after its payload is
// rejected — exactly one envelope per frame.

// BinaryVersion is the format-version byte leading every binary envelope
// body. Bump it when the layout changes; decoders reject versions they do
// not speak.
const BinaryVersion = 1

// FrameOverhead is the fixed per-frame cost of the binary codec: the 4-byte
// length prefix, the format-version byte, and the kind byte. The rest of a
// frame is the From address and the kind-specific payload.
const FrameOverhead = 6

// flag bits of the update, query-response and snapshot-chunk flag bytes.
const (
	flagDelete    = 1 << 0
	flagFound     = 1 << 0
	flagConfident = 1 << 1
	flagLast      = 1 << 0
)

// maxPushRound bounds the push round counter — and the snapshot chunk index
// — on both codec sides: both are small in practice, and sharing one bound
// keeps the invariant that everything encodable decodes.
const maxPushRound = 1 << 30

// --- Sizes -------------------------------------------------------------
//
// The size functions mirror the append functions exactly; they are exported
// so the simulator's byte accounting (internal/gossip) charges the real
// encoded size without building envelopes.

// UvarintSize returns the encoded length of x as a uvarint.
func UvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// StringSize returns the encoded length of a str field.
func StringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// BlobSize returns the encoded length of a blob field.
func BlobSize(b []byte) int { return UvarintSize(uint64(len(b))) + len(b) }

// HistorySize returns the encoded length of a version history with n
// entries.
func HistorySize(n int) int { return UvarintSize(uint64(n)) + n*version.IDSize }

// ClockSize returns the encoded length of a vector clock.
func ClockSize(c version.Clock) int {
	n := UvarintSize(uint64(len(c)))
	for origin, count := range c {
		n += StringSize(origin) + UvarintSize(count)
	}
	return n
}

// StoreUpdateSize returns the encoded length of one update record, computed
// from the store form directly.
func StoreUpdateSize(u store.Update) int {
	return StringSize(u.Origin) + UvarintSize(u.Seq) + StringSize(u.Key) +
		BlobSize(u.Value) + 1 + HistorySize(len(u.Version)) + 8
}

func updateSize(u *Update) int {
	return StringSize(u.Origin) + UvarintSize(u.Seq) + StringSize(u.Key) +
		BlobSize(u.Value) + 1 + HistorySize(len(u.Version)) + 8
}

// updatesSize and stringsSize return the encoded length of a count-prefixed
// update list and string list.
func updatesSize(us []Update) int {
	n := UvarintSize(uint64(len(us)))
	for i := range us {
		n += updateSize(&us[i])
	}
	return n
}

func stringsSize(list []string) int {
	n := UvarintSize(uint64(len(list)))
	for _, s := range list {
		n += StringSize(s)
	}
	return n
}

// EncodedSize returns the total frame length — FrameOverhead plus body —
// the binary codec produces for env.
func EncodedSize(env *Envelope) int {
	n := FrameOverhead + StringSize(env.From)
	switch env.Kind {
	case KindPush:
		n += updateSize(&env.Update) + stringsSize(env.RF) + UvarintSize(uint64(env.T))
	case KindPullReq:
		n += ClockSize(env.Clock)
	case KindPullResp:
		n += updatesSize(env.Updates) + stringsSize(env.KnownPeers)
	case KindAck:
		n += StringSize(env.UpdateRef.Origin) + UvarintSize(env.UpdateRef.Seq)
	case KindQuery:
		n += 8 + StringSize(env.Key)
	case KindQueryResp:
		n += 8 + StringSize(env.Key) + 1 + BlobSize(env.Value) +
			HistorySize(len(env.Version))
	case KindSnapshot:
		n += updatesSize(env.Updates) + UvarintSize(env.Stream) +
			UvarintSize(uint64(env.Chunk)) + 1 + stringsSize(env.KnownPeers)
		if env.Last {
			n += ClockSize(env.Clock)
		}
	}
	return n
}

// --- Encoding ----------------------------------------------------------

func appendUvarint(dst []byte, x uint64) []byte { return binary.AppendUvarint(dst, x) }

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBlob(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendI64(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(x))
}

func appendHistory(dst []byte, h version.History) []byte {
	dst = appendUvarint(dst, uint64(len(h)))
	for i := range h {
		dst = append(dst, h[i][:]...)
	}
	return dst
}

// appendClock encodes a vector clock in sorted origin order. The sort makes
// the encoding canonical — one byte string per clock — so frames are
// reproducible and the decoder can enforce uniqueness for free.
func appendClock(dst []byte, c version.Clock) []byte {
	dst = appendUvarint(dst, uint64(len(c)))
	if len(c) == 0 {
		return dst
	}
	if len(c) == 1 {
		for origin, count := range c {
			dst = appendString(dst, origin)
			dst = appendUvarint(dst, count)
		}
		return dst
	}
	origins := make([]string, 0, len(c))
	for origin := range c {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	for _, origin := range origins {
		dst = appendString(dst, origin)
		dst = appendUvarint(dst, c[origin])
	}
	return dst
}

func appendUpdate(dst []byte, u *Update) []byte {
	dst = appendString(dst, u.Origin)
	dst = appendUvarint(dst, u.Seq)
	dst = appendString(dst, u.Key)
	dst = appendBlob(dst, u.Value)
	var flags byte
	if u.Delete {
		flags |= flagDelete
	}
	dst = append(dst, flags)
	dst = appendHistory(dst, u.Version)
	return appendI64(dst, u.Stamp)
}

func appendUpdates(dst []byte, us []Update) []byte {
	dst = appendUvarint(dst, uint64(len(us)))
	for i := range us {
		dst = appendUpdate(dst, &us[i])
	}
	return dst
}

func appendStrings(dst []byte, list []string) []byte {
	dst = appendUvarint(dst, uint64(len(list)))
	for _, s := range list {
		dst = appendString(dst, s)
	}
	return dst
}

// AppendBody appends the binary body (format version, kind, from, payload —
// everything but the length prefix) of env to dst.
func AppendBody(dst []byte, env *Envelope) ([]byte, error) {
	if !validKind(env.Kind) {
		return dst, fmt.Errorf("wire: cannot encode kind %d", int(env.Kind))
	}
	// Mirror the decoder's bounds exactly: anything encodable must decode.
	if env.T < 0 || env.T > maxPushRound {
		return dst, fmt.Errorf("wire: push round %d out of range", env.T)
	}
	if env.Chunk < 0 || env.Chunk > maxPushRound {
		return dst, fmt.Errorf("wire: snapshot chunk %d out of range", env.Chunk)
	}
	dst = append(dst, BinaryVersion, byte(env.Kind))
	dst = appendString(dst, env.From)
	switch env.Kind {
	case KindPush:
		dst = appendUpdate(dst, &env.Update)
		dst = appendStrings(dst, env.RF)
		dst = appendUvarint(dst, uint64(env.T))
	case KindPullReq:
		dst = appendClock(dst, env.Clock)
	case KindPullResp:
		dst = appendUpdates(dst, env.Updates)
		dst = appendStrings(dst, env.KnownPeers)
	case KindAck:
		dst = appendString(dst, env.UpdateRef.Origin)
		dst = appendUvarint(dst, env.UpdateRef.Seq)
	case KindQuery:
		dst = appendI64(dst, env.QID)
		dst = appendString(dst, env.Key)
	case KindQueryResp:
		dst = appendI64(dst, env.QID)
		dst = appendString(dst, env.Key)
		var flags byte
		if env.Found {
			flags |= flagFound
		}
		if env.Confident {
			flags |= flagConfident
		}
		dst = append(dst, flags)
		dst = appendBlob(dst, env.Value)
		dst = appendHistory(dst, env.Version)
	case KindSnapshot:
		dst = appendUpdates(dst, env.Updates)
		dst = appendUvarint(dst, env.Stream)
		dst = appendUvarint(dst, uint64(env.Chunk))
		if env.Last {
			dst = append(dst, flagLast)
			dst = appendClock(dst, env.Clock)
		} else {
			dst = append(dst, 0)
		}
		dst = appendStrings(dst, env.KnownPeers)
	}
	return dst, nil
}

// AppendFrame appends the complete frame — length prefix plus body — of env
// to dst. Encoding a frame whose body exceeds MaxFrameBytes fails with
// ErrFrameTooLarge.
func AppendFrame(dst []byte, env *Envelope) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := AppendBody(dst, env)
	if err != nil {
		return dst[:start], err
	}
	body := len(dst) - start - 4
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w: %d bytes > %d", ErrFrameTooLarge, body, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// --- Decoding ----------------------------------------------------------

// errShort reports a field running past the end of the frame.
var errShort = fmt.Errorf("wire: truncated envelope body")

// binReader is a bounds-checked cursor over one frame body.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, errShort
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.data[r.off:])
	// Rejecting non-minimal encodings keeps the codec canonical: every
	// envelope has exactly one valid byte string.
	if n <= 0 || n != UvarintSize(x) {
		return 0, fmt.Errorf("wire: bad uvarint at offset %d", r.off)
	}
	r.off += n
	return x, nil
}

// take returns the next n raw bytes, aliasing the frame buffer.
func (r *binReader) take(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, errShort
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// strBytes returns a length-prefixed string field as a view of the frame.
func (r *binReader) strBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, errShort
	}
	b, _ := r.take(int(n))
	return b, nil
}

func (r *binReader) str() (string, error) {
	b, err := r.strBytes()
	return string(b), err
}

// strCached is str with a single-entry cache: when the bytes match prev the
// existing string is reused instead of allocating. A connection's frames
// repeat the same sender address, so the From field hits this on every
// frame after the first.
func (r *binReader) strCached(prev string) (string, error) {
	b, err := r.strBytes()
	if err != nil {
		return "", err
	}
	if string(b) == prev { // comparison, no conversion allocation
		return prev, nil
	}
	return string(b), nil
}

// blob returns a fresh copy of a length-prefixed byte field. Values escape
// into the store and into query state, so they must not alias the reusable
// frame buffer.
func (r *binReader) blob() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, errShort
	}
	b, _ := r.take(int(n))
	if len(b) == 0 {
		return nil, nil
	}
	return append([]byte(nil), b...), nil
}

func (r *binReader) i64() (int64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// history decodes a version history into fresh backing (histories escape
// into the store). The entry count is implicitly bounded by the frame:
// take() fails before any oversized allocation could happen.
func (r *binReader) history() (version.History, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining())/version.IDSize {
		return nil, errShort
	}
	if n == 0 {
		return nil, nil
	}
	out := make(version.History, n)
	for i := range out {
		b, _ := r.take(version.IDSize)
		copy(out[i][:], b)
	}
	return out, nil
}

// maxPreallocEntries caps count-driven pre-allocation in the decoder; a
// frame claiming more entries earns its memory incrementally, as entries
// actually parse, so allocation tracks bytes consumed rather than a
// attacker-chosen count. maxReusedEntries caps the container capacity a
// decode scratch retains between frames, so one legitimately huge frame
// (up to MaxFrameBytes) is not pinned for the connection's lifetime.
const (
	maxPreallocEntries = 4096
	maxReusedEntries   = 4096
)

// clock decodes a vector clock, reusing dst's storage when non-nil.
func (r *binReader) clock(dst version.Clock) (version.Clock, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each entry is at least 2 bytes (empty origin + 1-byte count).
	if n > uint64(r.remaining())/2 {
		return nil, errShort
	}
	var cached string
	if len(dst) == 1 {
		// Single-origin clocks (a young deployment pulling from its writer)
		// repeat the same key frame after frame; keep it across the clear.
		for k := range dst {
			cached = k
		}
	}
	if dst == nil {
		alloc := n
		if alloc > maxPreallocEntries {
			alloc = maxPreallocEntries
		}
		dst = make(version.Clock, alloc)
	} else {
		clear(dst)
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		origin, err := r.strCached(cached)
		if err != nil {
			return nil, err
		}
		// The encoder emits origins sorted and unique; enforcing that here
		// keeps the encoding canonical (decode∘encode is the identity on
		// bytes) and rejects duplicate keys.
		if i > 0 && origin <= prev {
			return nil, fmt.Errorf("wire: clock origins out of order")
		}
		prev = origin
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		dst[origin] = count
	}
	return dst, nil
}

// update decodes one update record into u. The origin and key strings of
// u's previous contents serve as single-entry caches (streams repeat both),
// so callers pass the reused struct rather than a zero one.
func (r *binReader) update(u *Update) error {
	var err error
	if u.Origin, err = r.strCached(u.Origin); err != nil {
		return err
	}
	if u.Seq, err = r.uvarint(); err != nil {
		return err
	}
	if u.Key, err = r.strCached(u.Key); err != nil {
		return err
	}
	if u.Value, err = r.blob(); err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	// Unknown flag bits are rejected, not ignored: accepting them would
	// break the one-encoding-per-envelope canonicality contract (the
	// re-encode clears them) and silently discard future format bits.
	if flags&^byte(flagDelete) != 0 {
		return fmt.Errorf("wire: unknown update flags %#x", flags)
	}
	u.Delete = flags&flagDelete != 0
	if u.Version, err = r.history(); err != nil {
		return err
	}
	u.Stamp, err = r.i64()
	return err
}

// updates decodes a count-prefixed update list, reusing dst's slots — not
// just the backing array — so each slot's previous origin/key strings serve
// as the decode caches. Beyond the retained capacity the slice grows one
// parsed entry at a time, so memory tracks bytes consumed, not the claimed
// count.
func (r *binReader) updates(dst []Update) ([]Update, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each update record is at least 14 bytes (five 1-byte empty fields,
	// the flag byte, and the 8-byte stamp).
	if n > uint64(r.remaining())/14 {
		return nil, errShort
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		if i < uint64(cap(dst)) {
			dst = dst[:i+1]
		} else {
			dst = append(dst, Update{})
		}
		if err := r.update(&dst[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// maxInternedList bounds the previous entries strs searches (O(n²) compares).
const maxInternedList = 64

// strs decodes a length-prefixed string list, reusing dst's backing array.
// dst's entries — the stream's previous list, which a flooding list mostly
// repeats, reordered and grown — are reused for equal entries at any
// position; a match swaps places with the entry at the decode position, so
// unmatched ones stay ahead of it.
func (r *binReader) strs(dst []string) ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each entry is at least 1 byte (empty string).
	if n > uint64(r.remaining()) {
		return nil, errShort
	}
	prev := min(len(dst), maxInternedList)
	if uint64(cap(dst)) < n {
		alloc := n
		if alloc > maxPreallocEntries {
			alloc = maxPreallocEntries
		}
		grown := make([]string, prev, alloc)
		copy(grown, dst)
		dst = grown
	}
	old := dst[:prev]
	dst = dst[:0]
	for i := 0; uint64(i) < n; i++ {
		b, err := r.strBytes()
		if err != nil {
			return nil, err
		}
		j := i
		for j < prev && old[j] != string(b) {
			j++
		}
		if j < prev {
			old[i], old[j] = old[j], old[i]
			dst = append(dst, old[i])
		} else {
			dst = append(dst, string(b))
		}
	}
	return dst, nil
}

// decodeScratch is the reusable decode state of one frame stream: the
// container backing arrays, the clock map, and the single-entry string
// caches. It lives outside the Envelope so reuse survives interleaved
// kinds — a real connection mixes pushes with acks and pull traffic, and
// an ack between two pushes must not throw the push containers away.
// Retention is capped at maxReusedEntries so one oversized frame does not
// stay pinned for the connection's lifetime.
type decodeScratch struct {
	rf      []string
	peers   []string
	updates []Update
	clock   version.Clock
	from    string // sender cache
	origin  string // push-update origin/key caches
	key     string
}

// harvest stores the containers a decode left in env back into the
// scratch, dropping any that grew beyond the retention cap.
func (s *decodeScratch) harvest(env *Envelope) {
	if env.RF != nil && cap(env.RF) <= maxReusedEntries {
		s.rf = env.RF
	}
	if env.KnownPeers != nil && cap(env.KnownPeers) <= maxReusedEntries {
		s.peers = env.KnownPeers
	}
	if env.Updates != nil && cap(env.Updates) <= maxReusedEntries {
		s.updates = env.Updates
	}
	if env.Clock != nil {
		if len(env.Clock) <= maxReusedEntries {
			s.clock = env.Clock
		} else {
			// The decoder filled the retained map in place; a map never
			// shrinks, so an oversized one must be dropped, not kept.
			s.clock = nil
		}
	}
	s.from = env.From
	if env.Kind == KindPush {
		s.origin, s.key = env.Update.Origin, env.Update.Key
	}
}

// DecodeBody decodes one binary envelope body (as framed by AppendFrame,
// prefix stripped) into env, which is reset first. Reusable containers —
// the RF, Updates and KnownPeers backing arrays and the Clock map — are
// taken from env's previous contents, so one-shot callers and same-kind
// loops reuse storage; streaming callers use FrameReader, whose scratch
// survives interleaved kinds. Everything that escapes the envelope
// (strings, values, version histories) is freshly allocated. Malformed
// input — unknown format version or kind, fields past the end, trailing
// bytes — is rejected without panicking, and allocation is proportional to
// the (length-bounded) frame, never to a claimed count alone.
func DecodeBody(data []byte, env *Envelope) error {
	s := decodeScratch{
		rf: env.RF, peers: env.KnownPeers, updates: env.Updates,
		clock: env.Clock, from: env.From,
		origin: env.Update.Origin, key: env.Update.Key,
	}
	return decodeBody(data, env, &s)
}

func decodeBody(data []byte, env *Envelope, s *decodeScratch) error {
	rf, updates, peers, clock := s.rf, s.updates, s.peers, s.clock
	prevFrom := s.from
	prevOrigin, prevKey := s.origin, s.key
	*env = Envelope{}
	r := binReader{data: data}
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver != BinaryVersion {
		return fmt.Errorf("wire: unknown format version %d", ver)
	}
	kind, err := r.byte()
	if err != nil {
		return err
	}
	if !validKind(Kind(kind)) {
		return fmt.Errorf("wire: unknown kind %d", kind)
	}
	env.Kind = Kind(kind)
	if env.From, err = r.strCached(prevFrom); err != nil {
		return err
	}
	switch env.Kind {
	case KindPush:
		env.Update.Origin, env.Update.Key = prevOrigin, prevKey
		if err := r.update(&env.Update); err != nil {
			return err
		}
		if env.RF, err = r.strs(rf); err != nil {
			return err
		}
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		if t > maxPushRound {
			return fmt.Errorf("wire: push round %d out of range", t)
		}
		env.T = int(t)
	case KindPullReq:
		if env.Clock, err = r.clock(clock); err != nil {
			return err
		}
	case KindPullResp:
		if env.Updates, err = r.updates(updates); err != nil {
			return err
		}
		if env.KnownPeers, err = r.strs(peers); err != nil {
			return err
		}
	case KindAck:
		if env.UpdateRef.Origin, err = r.str(); err != nil {
			return err
		}
		if env.UpdateRef.Seq, err = r.uvarint(); err != nil {
			return err
		}
	case KindQuery:
		if env.QID, err = r.i64(); err != nil {
			return err
		}
		if env.Key, err = r.str(); err != nil {
			return err
		}
	case KindQueryResp:
		if env.QID, err = r.i64(); err != nil {
			return err
		}
		if env.Key, err = r.str(); err != nil {
			return err
		}
		flags, err := r.byte()
		if err != nil {
			return err
		}
		if flags&^byte(flagFound|flagConfident) != 0 {
			return fmt.Errorf("wire: unknown query-resp flags %#x", flags)
		}
		env.Found = flags&flagFound != 0
		env.Confident = flags&flagConfident != 0
		if env.Value, err = r.blob(); err != nil {
			return err
		}
		if env.Version, err = r.history(); err != nil {
			return err
		}
	case KindSnapshot:
		if env.Updates, err = r.updates(updates); err != nil {
			return err
		}
		if env.Stream, err = r.uvarint(); err != nil {
			return err
		}
		chunk, err := r.uvarint()
		if err != nil {
			return err
		}
		if chunk > maxPushRound {
			return fmt.Errorf("wire: snapshot chunk %d out of range", chunk)
		}
		env.Chunk = int(chunk)
		flags, err := r.byte()
		if err != nil {
			return err
		}
		if flags&^byte(flagLast) != 0 {
			return fmt.Errorf("wire: unknown snapshot flags %#x", flags)
		}
		if env.Last = flags&flagLast != 0; env.Last {
			if env.Clock, err = r.clock(clock); err != nil {
				return err
			}
		}
		if env.KnownPeers, err = r.strs(peers); err != nil {
			return err
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("wire: %d stray bytes after envelope", r.remaining())
	}
	s.harvest(env)
	return nil
}

// DecodeBinary decodes one body into a fresh envelope — the one-shot
// convenience for tests and tools; transports use FrameReader, whose
// scratch state survives interleaved kinds.
func DecodeBinary(data []byte) (Envelope, error) {
	var env Envelope
	if err := DecodeBody(data, &env); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// EncodeBinary encodes env as one body (no length prefix) into fresh
// memory — the one-shot counterpart of DecodeBinary.
func EncodeBinary(env *Envelope) ([]byte, error) {
	return AppendBody(make([]byte, 0, EncodedSize(env)-4), env)
}
