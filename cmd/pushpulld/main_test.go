package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/serve"
)

// startDaemon runs the daemon in-process and returns its bound HTTP base
// URL plus a shutdown function that performs the graceful-drain path.
func startDaemon(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-http", "127.0.0.1:0", "-gossip", "127.0.0.1:0"}, args...),
			pw, io.Discard, stop)
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("daemon never became ready: %v", err)
	}
	httpAddr, _, err := parseReadyLine(line)
	if err != nil {
		t.Fatal(err)
	}
	var stopped bool
	shutdown := func() int {
		if stopped {
			return 0
		}
		stopped = true
		close(stop)
		select {
		case c := <-code:
			return c
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
			return -1
		}
	}
	t.Cleanup(func() { shutdown() })
	return "http://" + httpAddr, shutdown
}

func parseReadyLine(line string) (httpAddr, gossipAddr string, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, "http="); ok {
			httpAddr = v
		}
		if v, ok := strings.CutPrefix(f, "gossip="); ok {
			gossipAddr = v
		}
	}
	if httpAddr == "" || gossipAddr == "" {
		return "", "", fmt.Errorf("malformed ready line %q", line)
	}
	return httpAddr, gossipAddr, nil
}

func TestDaemonWALRecoversAcrossRestart(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	base, shutdown := startDaemon(t, "-wal-dir", walDir, "-fsync", "never", "-pull-interval", "50ms")

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", probe, resp.StatusCode)
		}
	}

	// Write a key through the edge.
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/kv/boot/count", bytes.NewReader([]byte("1")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}

	// A new incarnation replays the WAL: same value, counted as restored.
	base2, _ := startDaemon(t, "-wal-dir", walDir, "-fsync", "never")
	resp, err = http.Get(base2 + "/v1/kv/boot/count")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "1" {
		t.Fatalf("recovered get: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(base2 + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	var state serve.State
	err = json.NewDecoder(resp.Body).Decode(&state)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if state.Restored != 1 || state.UpdateCount != 1 {
		t.Fatalf("state after wal recovery = %+v", state)
	}
}

func TestDaemonRejectsBadFsyncPolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	code := run([]string{"-http", "127.0.0.1:0", "-gossip", "127.0.0.1:0", "-wal-dir", dir, "-fsync", "sometimes"},
		io.Discard, io.Discard, nil)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-snapshot", "x"}, // the WAL (-wal-dir) is the only persistence
		{"-pf", "junk"},
		{"-pf", "geom:"},
		{"-pf", "affine:1,2"},
	} {
		if code := run(args, io.Discard, io.Discard, nil); code != 2 {
			t.Fatalf("%v: exit code %d, want 2", args, code)
		}
	}
}

// TestParsePF covers each -pf form: a bare number below 1 is geom:n, one at
// or above 1 forwards always, and any pfparse spec is accepted.
func TestParsePF(t *testing.T) {
	for _, tc := range []struct {
		spec string
		at   int
		want float64
	}{
		{"0.5", 2, 0.25},
		{"geom:0.5", 2, 0.25},
		{"affine:0.8,0.5,0.2", 1, 0.6},
		{"const:0.3", 7, 0.3},
		{"ttl:2", 2, 0},
		{"adaptive:0.7", 0, 0.7},
	} {
		newPF, err := parsePF(tc.spec)
		if err != nil || newPF == nil {
			t.Fatalf("parsePF(%q): constructor nil = %v, err %v", tc.spec, newPF == nil, err)
		}
		if got := newPF().P(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("%s: P(%d) = %g, want %g", tc.spec, tc.at, got, tc.want)
		}
	}
	for _, spec := range []string{"1", "2.5"} {
		if newPF, err := parsePF(spec); err != nil || newPF != nil {
			t.Fatalf("parsePF(%q) should forward always (nil constructor): nil = %v, err %v", spec, newPF == nil, err)
		}
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" a:1, ,b:2,,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitPeers = %v", got)
	}
	if splitPeers("") != nil {
		t.Fatal("splitPeers(\"\") should be nil")
	}
}
