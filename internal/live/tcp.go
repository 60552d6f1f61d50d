package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/wire"
)

// dialTimeout bounds connection establishment to an (often offline) peer.
const dialTimeout = 2 * time.Second

// writeTimeout bounds the delivery of one outbound batch. A peer that keeps
// the connection open but stops reading (stalled process, dead NAT entry)
// would otherwise let the TCP window absorb traffic forever; the deadline
// turns the stall into a write error and the connection is evicted like any
// other dead one.
const writeTimeout = 10 * time.Second

// errConnDead marks a pooled connection that has already failed.
var errConnDead = errors.New("live: pooled connection dead")

// maxPooledConns caps the outbound connection pool, and maxInboundConns the
// accepted-connection set, so a node that has exchanged traffic with a large
// population does not hold a socket (and a goroutine) per peer it ever met —
// replicas in the target environment are mostly offline, and file
// descriptors are the scarce resource. At the cap an arbitrary entry is
// evicted; the evicted peer simply pays one redial on its next exchange.
const (
	maxPooledConns  = 256
	maxInboundConns = 512
)

// connBufBytes sizes the per-connection read and write buffers.
const connBufBytes = 32 << 10

// TCPTransport sends and receives envelopes over TCP. Connections to each
// destination are pooled; a send writes its pre-encoded frames (wire.Frame)
// straight through the pooled connection's buffered writer — one flush per
// batch — and blocks until the socket accepts them, bounded by writeTimeout.
// There is no per-connection queue: backpressure from a slow peer surfaces
// synchronously to the caller, which is exactly what the replica's
// per-peer coalescing senders (sender.go) absorb — each destination has one
// sending goroutine, so a stalled link parks that goroutine alone while its
// outbound state merges instead of queueing. Failed dials stay cheap (one
// timeout, reported synchronously); when a pooled connection turns out to
// be stale, SendFrames evicts it, dials once and replays the batch, so a
// single peer outage costs one redial rather than a lost batch.
type TCPTransport struct {
	listener net.Listener

	mu            sync.RWMutex
	handlerAtomic atomic.Value // of Handler, read per inbound frame
	batchAtomic   atomic.Value // of func([]wire.Envelope), read per run
	closed        bool
	closedAtomic  atomic.Bool
	wg            sync.WaitGroup
	// inbound tracks accepted connections so Close (and the cap) can
	// unblock their serve loops; they are long-lived, each carrying a frame
	// stream.
	inbound map[net.Conn]struct{}

	// poolMu guards pool and poolClosed. poolClosed mirrors closed so the
	// pool's own lifecycle decisions need no second lock (and no race
	// between a send pooling a fresh dial and Close draining the pool).
	poolMu     sync.Mutex
	pool       map[string]*pooledConn
	poolClosed bool
}

var (
	_ Transport        = (*TCPTransport)(nil)
	_ FrameSender      = (*TCPTransport)(nil)
	_ FrameBatchSender = (*TCPTransport)(nil)
	_ BatchReceiver    = (*TCPTransport)(nil)
)

// maxIngestRun caps the pushes one inbound run hands the batch handler.
const maxIngestRun = 256

// pooledConn is one outbound connection; its socket is fixed for its whole
// life. Writers serialise on wmu and write their frames synchronously — the
// socket itself is the queue, and a slow peer blocks its (single,
// coalescing) sender goroutine rather than growing a frame backlog. A failed
// write or a shutdown marks the connection dead; SendFrames then evicts it
// and dials a fresh one.
type pooledConn struct {
	to string

	// wmu admits one writing goroutine at a time. Concurrent direct users
	// of the transport serialise here; the replica's per-peer senders never
	// contend (one goroutine per destination).
	wmu sync.Mutex

	dead atomic.Bool // terminal: a write failed, or shutdown was requested

	conn net.Conn
	bw   *bufio.Writer // belongs to the wmu holder
	// lastArm is when the write deadline was last armed (UnixNano). Arming
	// costs a runtime timer update per call, so the owner re-arms only once
	// the previous arm has aged writeTimeout/2 — stall detection within
	// 1.5× writeTimeout instead of 1×, for one fewer fixed cost on the
	// per-batch hot path.
	lastArm int64
}

func newPooledConn(to string, conn net.Conn) *pooledConn {
	return &pooledConn{
		to:   to,
		conn: conn,
		bw:   bufio.NewWriterSize(conn, connBufBytes),
	}
}

// shutdown closes the socket, unblocking any in-flight write; idempotent.
func (pc *pooledConn) shutdown() {
	pc.dead.Store(true)
	pc.conn.Close()
}

// send writes one batch of frames, blocking until the socket has absorbed
// them (bounded by writeTimeout) — the transport's backpressure surface.
func (pc *pooledConn) send(frames []*wire.Frame) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if pc.dead.Load() {
		return errConnDead
	}
	err := pc.writeBatch(frames)
	if err != nil {
		pc.dead.Store(true)
	}
	return err
}

// ListenTCP starts a transport on the given address ("127.0.0.1:0" picks a
// free port).
func ListenTCP(addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		listener: ln,
		inbound:  make(map[net.Conn]struct{}),
		pool:     make(map[string]*pooledConn),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) { t.handlerAtomic.Store(h) }

// SetBatchHandler implements BatchReceiver.
func (t *TCPTransport) SetBatchHandler(h func([]wire.Envelope)) { t.batchAtomic.Store(h) }

// Send implements Transport: encode once, write on the destination's
// connection.
func (t *TCPTransport) Send(to string, env wire.Envelope) error {
	f, err := wire.NewFrame(&env)
	if err != nil {
		return fmt.Errorf("live: send to %s: %w", to, err)
	}
	defer f.Release()
	return t.SendFrame(to, f)
}

// SendFrame implements FrameSender: write one pre-encoded frame to the
// pooled connection to the destination, dialling one if absent (dial
// failures are reported synchronously). The call blocks until the socket
// absorbs the frame, bounded by writeTimeout. A connection that has already
// died is replaced by one guaranteed-fresh dial before the send is reported
// failed.
func (t *TCPTransport) SendFrame(to string, f *wire.Frame) error {
	one := [1]*wire.Frame{f}
	return t.SendFrames(to, one[:])
}

// SendFrames implements FrameBatchSender: write a batch of pre-encoded
// frames to one destination through a single buffered write and flush —
// a coalesced delta to one peer is one syscall, not one per envelope.
func (t *TCPTransport) SendFrames(to string, fs []*wire.Frame) error {
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return fmt.Errorf("live: transport closed")
	}
	pc, err := t.conn(to)
	if err != nil {
		return err
	}
	if err := pc.send(fs); err == nil {
		return nil
	}
	// The pooled connection died under us (its owner's write failed, or it
	// was evicted): retry exactly once on a connection this call dialled
	// itself.
	t.evictConn(pc)
	pc, err = t.dialAndPool(to, true)
	if err != nil {
		return err
	}
	if err := pc.send(fs); err != nil {
		return fmt.Errorf("live: send to %s: %w", to, err)
	}
	return nil
}

// conn returns the pooled connection to `to`, dialling one if absent.
func (t *TCPTransport) conn(to string) (*pooledConn, error) {
	t.poolMu.Lock()
	pc, ok := t.pool[to]
	t.poolMu.Unlock()
	if ok {
		return pc, nil
	}
	return t.dialAndPool(to, false)
}

// dialAndPool dials `to` and installs the connection in the pool. With
// replace set an existing entry is displaced (the retry path, which must not
// reuse a possibly-dead pooled connection); without it a concurrently pooled
// connection wins and the fresh dial is discarded.
func (t *TCPTransport) dialAndPool(to string, replace bool) (*pooledConn, error) {
	raw, err := net.DialTimeout("tcp", to, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("live: dial %s: %w", to, err)
	}
	pc := newPooledConn(to, raw)
	t.poolMu.Lock()
	if t.poolClosed {
		t.poolMu.Unlock()
		raw.Close()
		return nil, fmt.Errorf("live: transport closed")
	}
	var displaced []*pooledConn
	if existing, ok := t.pool[to]; ok {
		if !replace {
			// A concurrent send won the race; keep its connection.
			t.poolMu.Unlock()
			raw.Close()
			return existing, nil
		}
		displaced = append(displaced, existing)
		delete(t.pool, to)
	}
	if len(t.pool) >= maxPooledConns {
		for victim, vc := range t.pool {
			delete(t.pool, victim)
			displaced = append(displaced, vc)
			break
		}
	}
	t.pool[to] = pc
	t.poolMu.Unlock()
	for _, vc := range displaced {
		vc.shutdown()
	}
	return pc, nil
}

// evictConn drops a connection from the pool if it is still the pooled one
// (a racing send may already have replaced it) and closes its socket.
func (t *TCPTransport) evictConn(pc *pooledConn) {
	t.poolMu.Lock()
	if t.pool[pc.to] == pc {
		delete(t.pool, pc.to)
	}
	t.poolMu.Unlock()
	pc.shutdown()
}

// writeBatch writes the frames through bw and flushes once. The write
// deadline is re-armed whenever the current one has aged past half its
// span — checked per frame, so a large batch trickling over a slow but
// healthy link keeps extending its deadline with progress (only a link
// absorbing nothing for writeTimeout fails), while the fast path pays one
// clock read per frame and a timer update only every writeTimeout/2.
func (pc *pooledConn) writeBatch(frames []*wire.Frame) error {
	for _, f := range frames {
		now := time.Now()
		if now.UnixNano()-pc.lastArm > int64(writeTimeout/2) {
			pc.conn.SetWriteDeadline(now.Add(writeTimeout))
			pc.lastArm = now.UnixNano()
		}
		if _, err := pc.bw.Write(f.Bytes()); err != nil {
			return err
		}
	}
	return pc.bw.Flush()
}

// Close implements Transport: stops accepting, tears down pooled and
// inbound connections, and waits for the serve goroutines.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.closedAtomic.Store(true)
	for conn := range t.inbound {
		conn.Close() // unblock the serve loops
	}
	t.mu.Unlock()

	t.poolMu.Lock()
	t.poolClosed = true
	conns := make([]*pooledConn, 0, len(t.pool))
	for to, pc := range t.pool {
		conns = append(conns, pc)
		delete(t.pool, to)
	}
	t.poolMu.Unlock()
	for _, pc := range conns {
		pc.shutdown() // closes the socket: unblocks mid-batch writes
	}

	err := t.listener.Close()
	t.wg.Wait()
	return err
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		if len(t.inbound) >= maxInboundConns {
			for victim := range t.inbound {
				victim.Close() // its serve loop exits and deregisters
				break
			}
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
			t.mu.Lock()
			delete(t.inbound, conn)
			t.mu.Unlock()
		}()
	}
}

// serveConn decodes a stream of binary envelope frames from one inbound
// connection into a reusable struct, dispatching them to the handlers, until
// the peer closes or an error — a truncated frame, a bad length, a malformed
// body — makes the stream unsafe to continue. With a batch handler,
// consecutive pushes form a run that grows only while a complete next frame
// is buffered; their RFs are copied into an arena, as the decoder reuses its
// containers.
func (t *TCPTransport) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, connBufBytes)
	fr := wire.NewFrameReader(br)
	var env wire.Envelope
	var run []wire.Envelope
	var arena []string
	var batch func([]wire.Envelope) // handler of the run in progress
	for {
		err := fr.ReadEnvelope(&env)
		if t.closedAtomic.Load() {
			return
		}
		if err == nil && env.Kind == wire.KindPush {
			if batch == nil {
				batch, _ = t.batchAtomic.Load().(func([]wire.Envelope))
			}
			if batch != nil {
				push, start := env, len(arena)
				arena = append(arena, env.RF...)
				push.RF = arena[start:len(arena):len(arena)]
				run = append(run, push)
				if len(run) < maxIngestRun && frameBuffered(br) {
					continue
				}
			}
		}
		if len(run) > 0 {
			batch(run)
			clear(run) // drop the run's updates; the backing is kept
			run, batch = run[:0], nil
			// An arena past sixteen addresses a push is one outsized run's.
			if arena = arena[:0]; cap(arena) > 16*maxIngestRun {
				arena = nil
			}
			if err == nil && env.Kind == wire.KindPush {
				continue
			}
		}
		if err != nil {
			return // EOF, peer reset, or a corrupt stream: drop the connection
		}
		if handler, _ := t.handlerAtomic.Load().(Handler); handler != nil {
			handler(env)
		}
	}
}

// frameBuffered reports whether reading br's next frame cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	prefix, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(prefix))
}
