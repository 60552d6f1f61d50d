package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// This file is the streaming side of the binary codec: a connection carries
// a sequence of frames, each a 4-byte big-endian length followed by exactly
// one binary-encoded envelope body (binary.go). The length prefix bounds
// per-frame allocation against corrupt or hostile peers; the format-version
// byte inside the body handles evolution. Frame is the pooled, shareable
// encoded form a push fanout encodes once and hands to every destination's
// writer.

// MaxFrameBytes bounds a single envelope frame (16 MiB) so a corrupt or
// hostile peer cannot force unbounded allocation.
const MaxFrameBytes = 16 << 20

// ErrFrameTooLarge reports an envelope whose encoding exceeds MaxFrameBytes.
// It is deterministic for a given envelope: retrying the same envelope — on
// this or any fresh stream — fails identically, so transports should report
// it rather than redial. Match with errors.Is.
var ErrFrameTooLarge = errors.New("wire: envelope frame exceeds maximum size")

// Frame is one encoded envelope — length prefix included — shareable across
// any number of destinations and goroutines. Frames are reference-counted
// and pooled: NewFrame hands out a frame with one reference; every holder
// that passes it elsewhere Retains it first, and Release returns the buffer
// to the pool when the last reference drops. The bytes are immutable for
// the frame's lifetime.
type Frame struct {
	data []byte
	refs atomic.Int32
}

// framePool recycles Frame headers and their byte buffers. Oversized
// buffers (beyond maxPooledFrame) are dropped on release so one huge
// pull response does not pin megabytes in the pool.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

const maxPooledFrame = 64 << 10

// NewFrame encodes env as one pooled frame with a single reference.
func NewFrame(env *Envelope) (*Frame, error) {
	f := framePool.Get().(*Frame)
	data, err := AppendFrame(f.data[:0], env)
	if err != nil {
		framePool.Put(f)
		return nil, err
	}
	f.data = data
	f.refs.Store(1)
	return f, nil
}

// Bytes returns the encoded frame, length prefix included. The slice is
// valid until the caller's reference is released.
func (f *Frame) Bytes() []byte { return f.data }

// Retain adds a reference, for handing the frame to another holder.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference, recycling the frame when none remain.
func (f *Frame) Release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	if cap(f.data) > maxPooledFrame {
		f.data = nil
	}
	framePool.Put(f)
}

// FrameReader decodes a stream of frames (AppendFrame, Frame.Bytes),
// enforcing the per-frame size bound and the one-envelope-per-frame
// alignment. It is not safe for concurrent use.
type FrameReader struct {
	r       io.Reader
	buf     []byte
	scratch decodeScratch
}

// NewFrameReader starts reading a frame stream from r. Callers wanting
// buffering pass a bufio.Reader.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadEnvelope reads the next frame into env (reusing env's container
// storage; see DecodeBody for the reuse contract). Any error — io.EOF
// included — means the stream is unusable and must be dropped: frames
// cannot be resynchronised after a bad length or body.
func (f *FrameReader) ReadEnvelope(env *Envelope) error {
	var lenbuf [4]byte
	if _, err := io.ReadFull(f.r, lenbuf[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n < 2 || n > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes out of bounds", n)
	}
	buf := f.buf
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if cap(buf) <= maxPooledFrame {
		// Retain modest buffers across frames; an oversized one (up to the
		// 16 MiB frame bound, remote-controlled) is used once and released,
		// so an idle connection cannot pin megabytes it was sent once.
		f.buf = buf
	} else {
		f.buf = nil
	}
	if _, err := io.ReadFull(f.r, buf); err != nil {
		return err
	}
	// The reader owns the decode scratch, so container reuse and the string
	// caches survive interleaved kinds (a stream mixing pushes, acks, and
	// pull traffic — the normal case).
	return decodeBody(buf, env, &f.scratch)
}
