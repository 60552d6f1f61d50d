package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/serve"
)

// The node configuration every live workload shares: pushpulld's defaults
// (PF(t) = 0.9^t, partial lists, acks off, pull-attempts 3, snapshot
// catch-up 1024, metrics on) with a write-ahead log under fsync policy
// `interval` at 5 ms, and the maintenance timers shortened — pull 1 s,
// janitor 5 s, WAL checkpoint 16 MB — so pulls, compaction and checkpoints
// complete several cycles inside one run.
const (
	fleetPullInterval    = time.Second
	fleetJanitorInterval = 5 * time.Second
	fleetWALCheckpoint   = 16 << 20
	fleetFsyncInterval   = 5 * time.Millisecond
	fleetSnapshotCatchUp = 1024
	// fleetWatchBuffer rides out a watcher descheduled for half a second at
	// the highest event rate measured here (≈25k/s per node); a dropped
	// Watch event fails the run. Each slot costs ≈140 B per node.
	fleetWatchBuffer = 1 << 14
)

type fleetConfig struct {
	nodes  int
	fanout int
	// snapshotCatchUp is the pull-delta threshold above which a snapshot
	// frame is served; 0 forces entry-by-entry deltas.
	snapshotCatchUp int
	pullInterval    time.Duration
	janitorInterval time.Duration
	// httpNodes is how many of the first nodes sit behind a serve.Server on
	// a loopback listener.
	httpNodes int
	dir       string // parent of the per-node WAL directories
	seed      int64
	tr        *tracer // nil in the untraced run
	// onEvent receives every Watch event of every member, on that member's
	// own goroutine: state indexed by node needs no lock. Nil subscribes to
	// nothing.
	onEvent func(node int, ev pushpull.Event)
}

// member is one node of a fleet with everything needed to close it and to
// reopen it on the same address and WAL directory.
type member struct {
	idx       int
	addr      string // gossip address, fixed across restarts
	walDir    string
	reg       *pushpull.Metrics // survives restarts, so counters accumulate
	wal       *pushpull.WAL
	node      *pushpull.Node
	cancel    context.CancelFunc // ends the Watch subscription
	watchDone chan struct{}      // closed when the watcher goroutine exits

	httpSrv *http.Server
	httpURL string
	httpErr chan error
}

type fleet struct {
	cfg     fleetConfig
	members []*member
}

// Gossip ports are taken from 20000–29999, below the kernel's ephemeral range
// (32768 and up): a node that is closed and reopened must get its address
// back, and a port from the ephemeral range can be taken in between by any
// outbound connection of this very process — the peers dial all the time.
const (
	gossipPortBase  = 20000
	gossipPortCount = 10000
)

var gossipPort atomic.Int32

func init() { gossipPort.Store(int32(os.Getpid() * 61 % gossipPortCount)) }

// listenGossip binds a TCP transport: on addr if given (a reopen), else on
// the next free port of the gossip range.
func listenGossip(addr string) (*pushpull.TCPTransport, error) {
	if addr != "" {
		return pushpull.ListenTCP(addr)
	}
	var err error
	for tries := 0; tries < 100; tries++ {
		port := gossipPortBase + int(gossipPort.Add(1))%gossipPortCount
		var tr *pushpull.TCPTransport
		if tr, err = pushpull.ListenTCP(fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
			return tr, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, err
}

// openFleet starts cfg.nodes nodes on loopback TCP, each knowing all others,
// on empty WAL directories under cfg.dir.
func openFleet(cfg fleetConfig) (*fleet, error) {
	// A run that was killed may have left its logs behind.
	if err := os.RemoveAll(cfg.dir); err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg}
	for i := 0; i < cfg.nodes; i++ {
		f.members = append(f.members, &member{
			idx:    i,
			walDir: filepath.Join(cfg.dir, fmt.Sprintf("node%d", i)),
			reg:    pushpull.NewMetrics(),
		})
	}
	for _, m := range f.members {
		if err := f.open(m); err != nil {
			f.close()
			return nil, err
		}
	}
	// Addresses are only known once every node is bound.
	for _, m := range f.members {
		m.node.AddPeers(f.peersOf(m)...)
	}
	return f, nil
}

func (f *fleet) peersOf(m *member) []string {
	var peers []string
	for _, o := range f.members {
		if o != m && o.addr != "" {
			peers = append(peers, o.addr)
		}
	}
	return peers
}

// open starts (or restarts) one member from its WAL directory and returns
// once the node is serving. A restarted member gets its old address back and
// knows its peers from the start, so its coming-online pull finds them.
func (f *fleet) open(m *member) error {
	cfg := f.cfg
	w, err := pushpull.OpenWAL(pushpull.WALOptions{
		Dir:      m.walDir,
		Policy:   pushpull.WALSyncInterval,
		Interval: fleetFsyncInterval,
		Metrics:  m.reg,
	})
	if err != nil {
		return fmt.Errorf("node %d: open wal: %w", m.idx, err)
	}
	tcp, err := listenGossip(m.addr)
	if err != nil {
		w.Close()
		return fmt.Errorf("node %d: %w", m.idx, err)
	}
	m.addr = tcp.Addr()
	peers := f.peersOf(m)
	node, err := pushpull.Open(
		pushpull.WithTransport(traceTransport(cfg.tr, m.idx, tcp)),
		pushpull.WithPeers(peers...),
		pushpull.WithFanout(cfg.fanout),
		pushpull.WithPF(func() pushpull.PFFunc { return pf.Geometric{Base: 0.9} }),
		pushpull.WithAcks(false),
		pushpull.WithPullAttempts(3),
		pushpull.WithPullInterval(cfg.pullInterval),
		pushpull.WithJanitorInterval(cfg.janitorInterval),
		pushpull.WithSnapshotCatchUp(cfg.snapshotCatchUp),
		pushpull.WithSeed(cfg.seed*100+int64(m.idx)+1),
		pushpull.WithMetrics(m.reg),
		pushpull.WithWAL(w),
		pushpull.WithWALCheckpoint(fleetWALCheckpoint),
		pushpull.WithWatchBuffer(fleetWatchBuffer),
	)
	if err != nil {
		w.Close()
		return fmt.Errorf("node %d: open: %w", m.idx, err)
	}
	m.wal, m.node = w, node
	if cfg.onEvent != nil {
		ctx, cancel := context.WithCancel(context.Background())
		events, err := node.Watch(ctx, "")
		if err != nil {
			cancel()
			f.closeMember(m)
			return fmt.Errorf("node %d: watch: %w", m.idx, err)
		}
		m.cancel, m.watchDone = cancel, make(chan struct{})
		go func() {
			defer close(m.watchDone)
			for ev := range events {
				cfg.onEvent(m.idx, ev)
			}
		}()
	}

	if m.idx < cfg.httpNodes {
		srv, err := serve.New(serve.Config{Node: node, Metrics: m.reg})
		if err != nil {
			return fmt.Errorf("node %d: serve: %w", m.idx, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("node %d: http listen: %w", m.idx, err)
		}
		m.httpSrv = &http.Server{Handler: traceHandler(cfg.tr, m.idx, srv.Handler())}
		m.httpURL = "http://" + ln.Addr().String()
		m.httpErr = make(chan error, 1)
		go func() { m.httpErr <- m.httpSrv.Serve(ln) }()
	}
	return nil
}

// closeMember stops one node and everything attached to it, and waits for
// its goroutines. The WAL directory and the counters stay for a reopen.
func (f *fleet) closeMember(m *member) {
	if m.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = m.httpSrv.Shutdown(ctx)
		cancel()
		<-m.httpErr
		m.httpSrv = nil
	}
	if m.cancel != nil {
		m.cancel()
		<-m.watchDone
		m.cancel = nil
	}
	if m.node != nil {
		_ = m.node.Close(context.Background())
		m.node = nil
	}
	if m.wal != nil {
		_ = m.wal.Close()
		m.wal = nil
	}
}

// close stops every member and removes the fleet's directory.
func (f *fleet) close() {
	for _, m := range f.members {
		f.closeMember(m)
	}
	_ = os.RemoveAll(f.cfg.dir)
}

// counters sums every counter over all members.
func (f *fleet) counters() map[string]float64 {
	sum := make(map[string]float64)
	for _, m := range f.members {
		for name, v := range m.reg.Counters() {
			sum[name] += v
		}
	}
	return sum
}

// converged waits until every open member holds the same vector clock, up to
// the deadline, then compares their key→revisions digests. Delivery is
// judged this way and not by one Watch event per (update, replica): a
// replica healed by snapshot catch-up only receives live revisions.
func (f *fleet) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var open []*member
	for _, m := range f.members {
		if m.node != nil {
			open = append(open, m)
		}
	}
	for {
		ref := open[0].node.Clock()
		same := true
		for _, m := range open[1:] {
			if !clocksEqual(ref, m.node.Clock()) {
				same = false
				break
			}
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("clocks differ %v after the last op", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := stateDigest(open[0].node)
	for _, m := range open[1:] {
		if got := stateDigest(m.node); got != want {
			return fmt.Errorf("node %d holds other key→revisions than node %d at equal clocks", m.idx, open[0].idx)
		}
	}
	return nil
}

// clocksEqual compares two vector clocks; an absent origin counts as 0.
func clocksEqual(a, b pushpull.Clock) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// stateDigest hashes a node's live state: every key with all its coexisting
// revisions (version history, value, tombstone flag). Logs are not compared
// — compaction and snapshot catch-up legitimately leave different log
// entries behind equal state.
func stateDigest(n *pushpull.Node) [sha256.Size]byte {
	h := sha256.New()
	var num [8]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint64(num[:], uint64(len(b)))
		h.Write(num[:])
		h.Write(b)
	}
	st := n.Store()
	keys := n.Keys()
	sort.Strings(keys)
	for _, k := range keys {
		put([]byte(k))
		for _, rev := range st.Versions(k) {
			put(rev.Value)
			if rev.Deleted {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			for _, id := range rev.Version {
				h.Write(id[:])
			}
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
