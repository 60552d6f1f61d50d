// Command pushpulld is the serving daemon: one live protocol replica
// (internal/live over TCP) fronted by the HTTP client edge and Prometheus
// metrics of internal/serve. It is the deployment entry point for the
// paper's hybrid push/pull dissemination — clients PUT/GET/DELETE and
// watch through HTTP while replicas gossip among themselves on the wire
// protocol.
//
//	pushpulld -http 127.0.0.1:8080 -gossip 127.0.0.1:7946 \
//	    -peers 10.0.0.2:7946,10.0.0.3:7946 -wal-dir /var/lib/pushpull/wal
//
// With -wal-dir the daemon is crash-consistent: every accepted update is
// appended to a write-ahead log (fsync policy per -fsync) before the apply
// is acknowledged, and startup restores the latest checkpoint and replays
// the surviving log — a kill -9 loses nothing acknowledged. Without it,
// -snapshot provides graceful-shutdown-only persistence: restored on start
// if the file exists (counting the restored updates for /v1/state), written
// atomically on SIGINT/SIGTERM before draining. The line
//
//	pushpulld ready http=HOST:PORT gossip=HOST:PORT
//
// is printed to stdout once both listeners are live; the soak harness and
// the examples parse it to discover ephemeral ports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/serve"
	"github.com/p2pgossip/update/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable daemon body. When ready is non-nil it receives the
// bound addresses once serving; the process exits when a signal arrives or
// stop (if non-nil) closes.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("pushpulld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		httpAddr     = fs.String("http", "127.0.0.1:8080", "HTTP client-edge listen address")
		gossipAddr   = fs.String("gossip", "127.0.0.1:0", "replica gossip listen address (TCP)")
		peers        = fs.String("peers", "", "comma-separated gossip addresses of other replicas")
		fanout       = fs.Int("fanout", 5, "peers each push targets (the paper's R·f_r)")
		pfBase       = fs.Float64("pf", 0.9, "geometric forwarding-probability base PF(t)=base^t; >=1 forwards always")
		pullInterval = fs.Duration("pull-interval", 30*time.Second, "anti-entropy pull period (0 disables)")
		pullAttempts = fs.Int("pull-attempts", 3, "peers contacted per pull batch")
		acks         = fs.Bool("acks", false, "enable the §6 acknowledgement optimisation")
		listMax      = fs.Int("list-max", 0, "cap on flooding-list entries per push (0 = unlimited)")
		seed         = fs.Int64("seed", 0, "PRNG seed; 0 draws from crypto/rand")
		snapshotPath = fs.String("snapshot", "", "snapshot file: restored on start if present, written on graceful shutdown")

		janitorInterval = fs.Duration("janitor-interval", time.Minute, "maintenance pass period: TTL expiry, tombstone GC, log compaction (0 disables)")
		tombstoneTTL    = fs.Duration("tombstone-retention", 0, "how long tombstones outlive their delete before collection (0 = store default)")
		keyTTL          = fs.Duration("key-ttl", 0, "expire live keys older than this into tombstones (0 disables)")
		snapCatchUp     = fs.Int("snapshot-catchup", 1024, "pull deltas above this many updates are served as a snapshot of the live state when that is smaller (0 disables the size trigger)")

		walDir        = fs.String("wal-dir", "", "write-ahead-log directory; enables crash-consistent durability (supersedes -snapshot restore)")
		fsyncPolicy   = fs.String("fsync", "interval", "WAL fsync policy: always (group commit per append), interval (timer-bounded loss window), never (kernel-paced)")
		fsyncInterval = fs.Duration("fsync-interval", wal.DefaultSyncInterval, "flush period under -fsync interval")
		walSegment    = fs.Int64("wal-segment", wal.DefaultSegmentBytes, "WAL segment size in bytes; sealed segments are pruned by checkpoints")
		walCheckpoint = fs.Int64("wal-checkpoint", 0, "resident WAL bytes that trigger a janitor checkpoint (0 = built-in default)")
		strictRestore = fs.Bool("strict-restore", false, "exit instead of starting empty when the -snapshot file exists but is unusable")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := []pushpull.Option{
		pushpull.WithTCP(*gossipAddr),
		pushpull.WithFanout(*fanout),
		pushpull.WithPullInterval(*pullInterval),
		pushpull.WithPullAttempts(*pullAttempts),
		pushpull.WithAcks(*acks),
		pushpull.WithSeed(*seed),
		pushpull.WithJanitorInterval(*janitorInterval),
		pushpull.WithTombstoneRetention(*tombstoneTTL),
		pushpull.WithKeyTTL(*keyTTL),
		pushpull.WithSnapshotCatchUp(*snapCatchUp),
	}
	if *pfBase < 1 {
		base := *pfBase
		opts = append(opts, pushpull.WithPF(func() pushpull.PFFunc {
			return pf.Geometric{Base: base}
		}))
	} else {
		opts = append(opts, pushpull.WithPF(nil)) // PF(t) = 1
	}
	if *listMax > 0 {
		opts = append(opts, pushpull.WithListMax(*listMax))
	}
	if addrs := splitPeers(*peers); len(addrs) > 0 {
		opts = append(opts, pushpull.WithPeers(addrs...))
	}

	reg := pushpull.NewMetrics()
	opts = append(opts, pushpull.WithMetrics(reg))

	// With a WAL the checkpoint + log replay is the authoritative restore
	// path; otherwise restore a previous incarnation's snapshot, counting the
	// restored updates so /v1/state can reconcile apply counters across the
	// restart.
	var (
		walLog   *pushpull.WAL
		snapshot pushpull.Option // restores the -snapshot file; nil when there is none
		restored int
	)
	switch {
	case *walDir != "":
		if *snapshotPath != "" {
			fmt.Fprintf(stderr, "pushpulld: -wal-dir set; ignoring -snapshot restore (still written on graceful shutdown)\n")
		}
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintf(stderr, "pushpulld: %v\n", err)
			return 2
		}
		walLog, err = pushpull.OpenWAL(pushpull.WALOptions{
			Dir:          *walDir,
			Policy:       policy,
			Interval:     *fsyncInterval,
			SegmentBytes: *walSegment,
			Metrics:      reg,
		})
		if err != nil {
			fmt.Fprintf(stderr, "pushpulld: open wal %s: %v\n", *walDir, err)
			return 1
		}
		defer walLog.Close()
		opts = append(opts, pushpull.WithWAL(walLog), pushpull.WithWALCheckpoint(*walCheckpoint))
	case *snapshotPath != "":
		f, err := os.Open(*snapshotPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First boot: nothing to restore.
		case err != nil:
			fmt.Fprintf(stderr, "pushpulld: read snapshot %s: %v\n", *snapshotPath, err)
			return 1
		default:
			defer f.Close()
			snapshot = pushpull.WithSnapshot(f)
		}
	}

	// Open decodes the snapshot file, the one time it is read; an unusable
	// one surfaces as ErrSnapshot, after which the node opens empty unless
	// -strict-restore makes that fatal.
	node, err := pushpull.Open(append(opts, snapshot)...)
	if errors.Is(err, pushpull.ErrSnapshot) && !*strictRestore {
		fmt.Fprintf(stderr, "pushpulld: snapshot %s unusable (%v); starting empty, anti-entropy will catch up\n", *snapshotPath, err)
		snapshot = nil
		node, err = pushpull.Open(opts...)
	}
	switch {
	case errors.Is(err, pushpull.ErrSnapshot):
		fmt.Fprintf(stderr, "pushpulld: snapshot %s unusable: %v\n", *snapshotPath, err)
		return 1
	case err != nil:
		fmt.Fprintf(stderr, "pushpulld: open: %v\n", err)
		return 1
	case snapshot != nil:
		restored = node.Store().UpdateCount()
	}
	if rec, ok := node.WALRecovery(); ok {
		restored = rec.Restored()
		if restored > 0 || rec.TruncatedBytes > 0 {
			fmt.Fprintf(stderr, "pushpulld: wal recovery: checkpoint=%d replayed=%d duplicates=%d truncated=%dB\n",
				rec.CheckpointRestored, rec.Replayed, rec.Duplicates, rec.TruncatedBytes)
		}
	}

	srv, err := serve.New(serve.Config{
		Node:         node,
		Metrics:      reg,
		Restored:     restored,
		StartUnready: true,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pushpulld: %v\n", err)
		_ = node.Close(context.Background())
		return 1
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintf(stderr, "pushpulld: listen %s: %v\n", *httpAddr, err)
		_ = node.Close(context.Background())
		return 1
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	srv.SetReady(true)
	fmt.Fprintf(stdout, "pushpulld ready http=%s gossip=%s\n", ln.Addr(), node.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	select {
	case sig := <-sigs:
		fmt.Fprintf(stderr, "pushpulld: %v, draining\n", sig)
	case <-stop:
	case err := <-serveErr:
		fmt.Fprintf(stderr, "pushpulld: http server: %v\n", err)
		_ = node.Close(context.Background())
		return 1
	}

	// Graceful shutdown: stop advertising readiness, persist the log,
	// stop the protocol, then drain HTTP.
	srv.SetReady(false)
	code := 0
	if *snapshotPath != "" {
		if err := writeSnapshotAtomic(node, *snapshotPath); err != nil {
			fmt.Fprintf(stderr, "pushpulld: %v\n", err)
			code = 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := node.Close(ctx); err != nil {
		fmt.Fprintf(stderr, "pushpulld: close node: %v\n", err)
		code = 1
	}
	if err := httpServer.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "pushpulld: shutdown http: %v\n", err)
		code = 1
	}
	return code
}

// writeSnapshotAtomic writes the node's snapshot next to path, fsyncs it,
// and renames it into place (fsyncing the directory), so a crash mid-write
// or just after the rename can never leave a truncated or unlinked snapshot
// where the next boot will read it.
func writeSnapshotAtomic(node *pushpull.Node, path string) error {
	if err := wal.WriteFileAtomic(path, node.WriteSnapshot); err != nil {
		return fmt.Errorf("snapshot %s: %w", path, err)
	}
	return nil
}

// splitPeers parses the -peers flag: comma-separated, blanks ignored.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
