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
// is acknowledged, and startup replays the latest checkpoint's records, then
// the surviving segments' — a kill -9 loses nothing acknowledged; /v1/state
// reports the recovered updates. The WAL is the daemon's only persistence:
// without -wal-dir a restarted daemon opens empty and catches up by pull.
// The line
//
//	pushpulld ready http=HOST:PORT gossip=HOST:PORT
//
// is printed to stdout once both listeners are live; the soak harness and
// the examples parse it to discover ephemeral ports.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/pfparse"
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
		pfSpec       = fs.String("pf", "0.9", "forwarding-probability schedule: a spec such as geom:0.9, affine:A,B,C or adaptive:BASE; a bare number n means geom:n, n >= 1 forwards always")
		pullInterval = fs.Duration("pull-interval", 30*time.Second, "anti-entropy pull period (0 disables)")
		pullAttempts = fs.Int("pull-attempts", 3, "peers contacted per pull batch")
		acks         = fs.Bool("acks", false, "enable the §6 acknowledgement optimisation")
		listMax      = fs.Int("list-max", 0, "cap on flooding-list entries per push (0 = unlimited)")
		seed         = fs.Int64("seed", 0, "PRNG seed; 0 draws from crypto/rand")

		janitorInterval = fs.Duration("janitor-interval", time.Minute, "maintenance pass period: TTL expiry, tombstone GC, log compaction (0 disables)")
		tombstoneTTL    = fs.Duration("tombstone-retention", 0, "how long tombstones outlive their delete before collection (0 = store default)")
		keyTTL          = fs.Duration("key-ttl", 0, "expire live keys older than this into tombstones (0 disables)")
		snapCatchUp     = fs.Int("snapshot-catchup", 1024, "pull deltas above this many updates are served as a snapshot of the live state when that is smaller (0 disables the size trigger)")

		walDir        = fs.String("wal-dir", "", "write-ahead-log directory; enables crash-consistent durability (without it state lives in memory only)")
		fsyncPolicy   = fs.String("fsync", "interval", "WAL fsync policy: always (group commit per append), interval (timer-bounded loss window), never (kernel-paced)")
		fsyncInterval = fs.Duration("fsync-interval", wal.DefaultSyncInterval, "flush period under -fsync interval")
		walSegment    = fs.Int64("wal-segment", wal.DefaultSegmentBytes, "WAL segment size in bytes; sealed segments are pruned by checkpoints")
		walCheckpoint = fs.Int64("wal-checkpoint", 0, "resident WAL bytes that trigger a janitor checkpoint (0 = built-in default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newPF, err := parsePF(*pfSpec)
	if err != nil {
		fmt.Fprintf(stderr, "pushpulld: -pf: %v\n", err)
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
		pushpull.WithPF(newPF),
	}
	if *listMax > 0 {
		opts = append(opts, pushpull.WithListMax(*listMax))
	}
	if addrs := splitPeers(*peers); len(addrs) > 0 {
		opts = append(opts, pushpull.WithPeers(addrs...))
	}

	reg := pushpull.NewMetrics()
	opts = append(opts, pushpull.WithMetrics(reg))

	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintf(stderr, "pushpulld: %v\n", err)
			return 2
		}
		walLog, err := pushpull.OpenWAL(pushpull.WALOptions{
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
	}

	node, err := pushpull.Open(opts...)
	if err != nil {
		fmt.Fprintf(stderr, "pushpulld: open: %v\n", err)
		return 1
	}
	// The recovered count lets /v1/state reconcile apply counters across
	// the restart; without a WAL it is zero.
	rec, _ := node.WALRecovery()
	if rec.Replayed > 0 || rec.TruncatedBytes > 0 {
		fmt.Fprintf(stderr, "pushpulld: wal recovery: replayed=%d duplicates=%d truncated=%dB\n",
			rec.Replayed, rec.Duplicates, rec.TruncatedBytes)
	}

	srv, err := serve.New(serve.Config{
		Node:         node,
		Metrics:      reg,
		Restored:     rec.Replayed,
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

	// Graceful shutdown: stop advertising readiness, stop the protocol,
	// then drain HTTP.
	srv.SetReady(false)
	code := 0
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

// parsePF builds the -pf schedule constructor: a bare number n is geom:n,
// or PF(t) = 1 (a nil constructor) when n >= 1; anything else is a
// pfparse spec.
func parsePF(spec string) (func() pushpull.PFFunc, error) {
	if base, err := strconv.ParseFloat(spec, 64); err == nil {
		if base >= 1 {
			return nil, nil
		}
		spec = "geom:" + spec
	}
	return pfparse.Factory(spec)
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
