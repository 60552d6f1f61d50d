package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/serve"
)

// daemonBin is the pushpulld binary, compiled once for the whole package.
var daemonBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "pushpulld-bin-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin, err := BuildDaemon(dir)
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = bin
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testLogWriter adapts t.Logf so daemon stderr lands in the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	if msg := strings.TrimSpace(string(p)); msg != "" {
		w.t.Logf("daemon: %s", msg)
	}
	return len(p), nil
}

// soakTraffic drives numbered PUTs through the given clients round-robin,
// recording every assigned ref and the expected final value per key.
type soakTraffic struct {
	t      *testing.T
	nextID int
	refs   []serve.PutResult
	want   map[string]string
}

func newSoakTraffic(t *testing.T) *soakTraffic {
	return &soakTraffic{t: t, want: make(map[string]string)}
}

// write puts n fresh keys through the clients (each key written exactly
// once, so the final expected value is unambiguous).
func (tr *soakTraffic) write(clients []*Client, n int) {
	tr.t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("soak/k%04d", tr.nextID)
		val := fmt.Sprintf("v%d", tr.nextID)
		tr.nextID++
		ref, err := clients[i%len(clients)].Put(key, []byte(val))
		if err != nil {
			tr.t.Fatalf("put %s: %v", key, err)
		}
		tr.refs = append(tr.refs, ref)
		tr.want[key] = val
	}
}

// TestClusterSoak is the multi-process chaos soak: N real pushpulld
// processes on loopback, sustained HTTP traffic, SIGKILL + recovery from
// the WAL on the same addresses, peer-list churn, then the
// scraped-state invariants. Short mode (CI) runs 3 processes and one kill
// cycle in ~30s; full mode runs 5 processes, two kill cycles, and a
// cold member joining mid-run.
func TestClusterSoak(t *testing.T) {
	procs, killCycles, keysPerPhase := 5, 2, 40
	if testing.Short() {
		procs, killCycles, keysPerPhase = 3, 1, 15
	}
	tmp := t.TempDir()
	base := ProcConfig{
		Seed:         1,
		PullInterval: 100 * time.Millisecond,
		Fanout:       4,
		PF:           1,
		Acks:         true,
		WALDir:       filepath.Join(tmp, "member.wal"),
	}
	c, err := Launch(daemonBin, procs, base, testLogWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	tr := newSoakTraffic(t)

	// Phase 1: sustained traffic through every member.
	tr.write(c.Clients, keysPerPhase)

	// Phase 2: kill cycles. Each victim comes back from its WAL directory
	// alone.
	for cycle := 0; cycle < killCycles; cycle++ {
		victim := 1 + cycle%(procs-1)
		survivors := make([]*Client, 0, procs-1)
		for i, cl := range c.Clients {
			if i != victim {
				survivors = append(survivors, cl)
			}
		}
		if err := c.KillAndRecover(victim); err != nil {
			t.Fatalf("kill cycle %d: %v", cycle, err)
		}
		// Traffic keeps flowing while the victim catches back up.
		tr.write(survivors, keysPerPhase)
		if !c.Clients[victim].Ready() {
			t.Fatalf("kill cycle %d: restarted member %d not ready", cycle, victim)
		}
	}

	// Phase 3 (full mode): peer churn — a cold member joins mid-run and
	// must converge from nothing through pull.
	if !testing.Short() {
		cfg := base
		cfg.Seed = base.Seed + int64(procs)
		cfg.WALDir = filepath.Join(tmp, "joiner.wal")
		cfg.Peers = c.GossipAddrs()
		p, err := StartProc(daemonBin, cfg, testLogWriter{t})
		if err != nil {
			t.Fatalf("join member: %v", err)
		}
		c.Procs = append(c.Procs, p)
		c.Clients = append(c.Clients, NewClient(p.HTTPAddr))
	}

	// Peer-list churn: re-teach every member the full current view (the
	// restarts and the joiner may have shuffled who knows whom).
	all := c.GossipAddrs()
	for i, cl := range c.Clients {
		if _, err := cl.AddPeers(all); err != nil {
			t.Fatalf("rewire member %d: %v", i, err)
		}
	}

	// Phase 4: final traffic wave through everyone, then quiesce.
	tr.write(c.Clients, keysPerPhase)
	states, err := c.WaitConverged(60 * time.Second)
	if werr := writeSoakArtifact(states, tr.refs); werr != nil {
		t.Errorf("soak artifact: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}

	// The scraped-state invariants: convergence, eventual delivery of
	// every published ref, and exactly-once application per process.
	if err := CheckAll(states, tr.refs); err != nil {
		t.Fatal(err)
	}

	// Client-visible spot check: every member serves every key's final
	// value through the edge.
	for key, want := range tr.want {
		for i, cl := range c.Clients {
			got, ok, err := cl.Get(key)
			if err != nil {
				t.Fatalf("member %d get %s: %v", i, key, err)
			}
			if !ok || string(got) != want {
				t.Fatalf("member %d: %s = %q (ok=%v), want %q", i, key, got, ok, want)
			}
		}
	}
	t.Logf("soak: %d members, %d kill cycles, %d updates, digest %.12s…",
		len(c.Clients), killCycles, states[0].UpdateCount, states[0].Digest)
}

// writeSoakArtifact dumps the final scraped states (and published refs) as
// JSON to $SOAK_OUT for CI artifact upload. No-op when the env var is
// unset.
func writeSoakArtifact(states []State, refs []serve.PutResult) error {
	path := os.Getenv("SOAK_OUT")
	if path == "" {
		return nil
	}
	doc := struct {
		States []State           `json:"states"`
		Refs   []serve.PutResult `json:"refs"`
	}{States: states, Refs: refs}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// TestKillAndRestartPreservesIdentity pins the fault injector itself: the
// process KillAndRecover restarts must come back on the SAME addresses
// with its WAL's updates recovered.
func TestKillAndRestartPreservesIdentity(t *testing.T) {
	tmp := t.TempDir()
	c, err := Launch(daemonBin, 2, ProcConfig{
		Seed:         7,
		PullInterval: 100 * time.Millisecond,
		PF:           1,
		WALDir:       filepath.Join(tmp, "id.wal"),
	}, testLogWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	if _, err := c.Clients[1].Put("id/key", []byte("held")); err != nil {
		t.Fatal(err)
	}
	httpAddr, gossipAddr := c.Procs[1].HTTPAddr, c.Procs[1].GossipAddr
	if err := c.KillAndRecover(1); err != nil {
		t.Fatal(err)
	}
	if c.Procs[1].HTTPAddr != httpAddr || c.Procs[1].GossipAddr != gossipAddr {
		t.Fatalf("restart moved addresses: http %s -> %s, gossip %s -> %s",
			httpAddr, c.Procs[1].HTTPAddr, gossipAddr, c.Procs[1].GossipAddr)
	}
	st, err := c.Clients[1].State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.UpdateCount != 1 {
		t.Fatalf("restored state = %+v", st)
	}
	got, ok, err := c.Clients[1].Get("id/key")
	if err != nil || !ok || string(got) != "held" {
		t.Fatalf("restored get = %q ok=%v err=%v", got, ok, err)
	}
}

func TestParseReadyLine(t *testing.T) {
	h, g, err := parseReadyLine("pushpulld ready http=127.0.0.1:8080 gossip=127.0.0.1:7946\n")
	if err != nil || h != "127.0.0.1:8080" || g != "127.0.0.1:7946" {
		t.Fatalf("parseReadyLine = %q %q %v", h, g, err)
	}
	if _, _, err := parseReadyLine("something else"); err == nil {
		t.Fatal("want error for malformed line")
	}
}
