// Httpcluster runs two real pushpulld processes on loopback and talks to
// them exactly the way an operator with curl would: PUT a key on the first
// daemon, watch the SSE stream and GET it on the second, query, and scrape
// /metrics and /v1/state. Every request is printed as the equivalent curl
// invocation, so the output doubles as a transcript of the HTTP API.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/p2pgossip/update/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "httpcluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Println("building pushpulld…")
	bin, err := cluster.BuildDaemon(dir)
	if err != nil {
		return err
	}

	// Two daemons on ephemeral loopback ports, pulling aggressively so the
	// demo converges fast.
	base := cluster.ProcConfig{
		Seed:         1,
		PullInterval: 200 * time.Millisecond,
		PF:           1,
		WALDir:       filepath.Join(dir, "wal"),
	}
	c, err := cluster.Launch(bin, 2, base, os.Stderr)
	if err != nil {
		return err
	}
	defer c.Shutdown()
	a, b := c.Procs[0], c.Procs[1]
	fmt.Printf("daemon A: http://%s (gossip %s)\n", a.HTTPAddr, a.GossipAddr)
	fmt.Printf("daemon B: http://%s (gossip %s)\n\n", b.HTTPAddr, b.GossipAddr)

	// Open the SSE watch on B before writing to A, as a client tailing
	// changes would.
	watchURL := fmt.Sprintf("http://%s/v1/watch?prefix=demo/", b.HTTPAddr)
	fmt.Printf("$ curl -N %s &\n", watchURL)
	watchResp, err := http.Get(watchURL)
	if err != nil {
		return err
	}
	defer watchResp.Body.Close()
	watchLines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(watchResp.Body)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				watchLines <- line
			}
		}
		close(watchLines)
	}()

	// PUT on A.
	putURL := fmt.Sprintf("http://%s/v1/kv/demo/greeting", a.HTTPAddr)
	fmt.Printf("$ curl -X PUT -d 'hello from A' %s\n", putURL)
	if body, err := do(http.MethodPut, putURL, []byte("hello from A")); err != nil {
		return err
	} else {
		fmt.Printf("  %s\n", body)
	}

	// The watcher on B sees the update arrive over gossip.
	fmt.Println("watch stream on B:")
	deadline := time.After(10 * time.Second)
	for sawData := false; !sawData; {
		select {
		case line, ok := <-watchLines:
			if !ok {
				return fmt.Errorf("watch stream closed early")
			}
			fmt.Printf("  %s\n", line)
			sawData = strings.HasPrefix(line, "data:")
		case <-deadline:
			return fmt.Errorf("update never reached B's watch stream")
		}
	}

	// GET on B: the value replicated.
	getURL := fmt.Sprintf("http://%s/v1/kv/demo/greeting", b.HTTPAddr)
	fmt.Printf("$ curl %s\n", getURL)
	body, err := do(http.MethodGet, getURL, nil)
	if err != nil {
		return err
	}
	fmt.Printf("  %s\n", body)

	// A §4.4 freshest-version query through B.
	queryURL := fmt.Sprintf("http://%s/v1/query", b.HTTPAddr)
	fmt.Printf("$ curl -X POST -d '{\"key\":\"demo/greeting\",\"k\":2}' %s\n", queryURL)
	if body, err = do(http.MethodPost, queryURL, []byte(`{"key":"demo/greeting","k":2}`)); err != nil {
		return err
	}
	fmt.Printf("  %s\n", body)

	// Scraped state: both members converged to the same digest.
	for name, p := range map[string]*cluster.Proc{"A": a, "B": b} {
		stateURL := fmt.Sprintf("http://%s/v1/state", p.HTTPAddr)
		fmt.Printf("$ curl %s\n", stateURL)
		if body, err = do(http.MethodGet, stateURL, nil); err != nil {
			return err
		}
		fmt.Printf("  %s: %s\n", name, body)
	}

	// A taste of /metrics.
	metricsURL := fmt.Sprintf("http://%s/metrics", a.HTTPAddr)
	fmt.Printf("$ curl %s | grep push\n", metricsURL)
	if body, err = do(http.MethodGet, metricsURL, nil); err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.Contains(line, "push") && !strings.HasPrefix(line, "#") {
			fmt.Printf("  %s\n", line)
		}
	}
	return nil
}

// do issues one request and returns the trimmed body.
func do(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return bytes.TrimSpace(out), nil
}
