package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/metrics"
)

// testEdge is one node with its HTTP edge mounted on an httptest server.
type testEdge struct {
	node *pushpull.Node
	reg  *pushpull.Metrics
	srv  *Server
	http *httptest.Server
}

// newEdges builds n hub-connected nodes, each behind its own HTTP server.
func newEdges(t *testing.T, n int) []*testEdge {
	t.Helper()
	hub := pushpull.NewHub()
	edges := make([]*testEdge, n)
	addrs := make([]string, n)
	for i := range edges {
		reg := pushpull.NewMetrics()
		addrs[i] = fmt.Sprintf("node-%d", i)
		node, err := pushpull.Open(
			pushpull.WithHub(hub, addrs[i]),
			pushpull.WithMetrics(reg),
			pushpull.WithSeed(int64(i)+1),
			pushpull.WithPullInterval(10*time.Millisecond),
		)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		srv, err := New(Config{Node: node, Metrics: reg})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		edges[i] = &testEdge{node: node, reg: reg, srv: srv, http: httptest.NewServer(srv.Handler())}
		t.Cleanup(edges[i].http.Close)
		t.Cleanup(func() { _ = node.Close(context.Background()) })
	}
	for _, e := range edges {
		e.node.AddPeers(addrs...)
	}
	return edges
}

func (e *testEdge) url(path string) string { return e.http.URL + path }

func (e *testEdge) do(t *testing.T, method, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, e.url(path), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp, raw
}

func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestKVRoundTrip(t *testing.T) {
	edges := newEdges(t, 2)

	// PUT on node 0; keys with slashes must survive the path.
	resp, raw := edges[0].do(t, http.MethodPut, "/v1/kv/users/alice/email", []byte("a@example.org"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, raw)
	}
	var put PutResult
	if err := json.Unmarshal(raw, &put); err != nil {
		t.Fatalf("put result: %v", err)
	}
	if put.Origin != "node-0" || put.Seq != 1 || put.Key != "users/alice/email" {
		t.Fatalf("put result = %+v", put)
	}

	// GET from node 1 once gossip delivers it.
	eventually(t, 2*time.Second, func() bool {
		resp, _ := edges[1].do(t, http.MethodGet, "/v1/kv/users/alice/email", nil)
		return resp.StatusCode == http.StatusOK
	}, "update did not reach node 1 over gossip")
	resp, raw = edges[1].do(t, http.MethodGet, "/v1/kv/users/alice/email", nil)
	if string(raw) != "a@example.org" {
		t.Fatalf("get body = %q", raw)
	}
	if b := resp.Header.Get("X-Pushpull-Branches"); b != "1" {
		t.Fatalf("branches header = %q", b)
	}

	// DELETE on node 1 tombstones everywhere.
	resp, raw = edges[1].do(t, http.MethodDelete, "/v1/kv/users/alice/email", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, raw)
	}
	eventually(t, 2*time.Second, func() bool {
		resp, _ := edges[0].do(t, http.MethodGet, "/v1/kv/users/alice/email", nil)
		return resp.StatusCode == http.StatusNotFound
	}, "tombstone did not reach node 0")

	// Errors: empty key, bad method.
	resp, _ = edges[0].do(t, http.MethodGet, "/v1/kv/", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty key: %d", resp.StatusCode)
	}
	resp, _ = edges[0].do(t, http.MethodPatch, "/v1/kv/x", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("patch: %d", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	edges := newEdges(t, 3)
	if _, err := edges[2].node.Publish(context.Background(), "quorum/key", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(QueryRequest{Key: "quorum/key", K: 2})
	resp, raw := edges[0].do(t, http.MethodPost, "/v1/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	var out QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Found || string(out.Value) != "fresh" {
		t.Fatalf("query outcome = %+v", out)
	}

	resp, _ = edges[0].do(t, http.MethodPost, "/v1/query", []byte(`{"key":""}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-key query: %d", resp.StatusCode)
	}
}

func TestPeersEndpoint(t *testing.T) {
	edges := newEdges(t, 2)
	resp, raw := edges[0].do(t, http.MethodGet, "/v1/peers", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peers: %d", resp.StatusCode)
	}
	var peers PeersResponse
	if err := json.Unmarshal(raw, &peers); err != nil {
		t.Fatal(err)
	}
	if peers.Self != "node-0" || len(peers.Peers) != 1 || peers.Peers[0] != "node-1" {
		t.Fatalf("peers = %+v", peers)
	}

	body, _ := json.Marshal(PeersRequest{Peers: []string{"node-7", "node-8"}})
	_, raw = edges[0].do(t, http.MethodPost, "/v1/peers", body)
	if err := json.Unmarshal(raw, &peers); err != nil {
		t.Fatal(err)
	}
	if len(peers.Peers) != 3 {
		t.Fatalf("after churn peers = %+v", peers)
	}
}

func TestPullEndpoint(t *testing.T) {
	edges := newEdges(t, 2)
	resp, _ := edges[0].do(t, http.MethodPost, "/v1/pull", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull: %d", resp.StatusCode)
	}
	// A peerless node reports ErrNoPeers as unavailability.
	reg := pushpull.NewMetrics()
	solo, err := pushpull.Open(pushpull.WithHub(pushpull.NewHub(), "alone"), pushpull.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close(context.Background())
	srv, err := New(Config{Node: solo, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r2, err := http.Post(ts.URL+"/v1/pull", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("peerless pull: %d", r2.StatusCode)
	}
}

func TestHealthAndReady(t *testing.T) {
	edges := newEdges(t, 1)
	resp, _ := edges[0].do(t, http.MethodGet, "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	edges[0].srv.SetReady(false)
	resp, _ = edges[0].do(t, http.MethodGet, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	edges[0].srv.SetReady(true)
	resp, _ = edges[0].do(t, http.MethodGet, "/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint is the acceptance check: after a gossip round the
// Prometheus exposition parses and contains every registered live.Metric*
// counter plus the HTTP counters the requests themselves generated.
func TestMetricsEndpoint(t *testing.T) {
	edges := newEdges(t, 2)
	ctx := context.Background()
	if _, err := edges[0].node.Publish(ctx, "m/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, func() bool {
		_, ok := edges[1].node.Get("m/k")
		return ok
	}, "gossip round did not complete")

	// A kv request so the http.* counters exist with a route tag.
	edges[1].do(t, http.MethodGet, "/v1/kv/m/k", nil)

	resp, raw := edges[1].do(t, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	samples := parseExposition(t, string(raw))

	for _, name := range pushpull.MetricNames() {
		exported := "pushpull_" + metrics.SanitizeMetricName(name) + "_total"
		if _, ok := samples[exported]; !ok {
			t.Errorf("metric %q (%s) missing from /metrics", name, exported)
		}
	}
	if samples["pushpull_live_push_received_total"] <= 0 {
		t.Error("push.received counter did not advance after a gossip round")
	}
	if samples["pushpull_http_requests_kv_get_total"] <= 0 {
		t.Error("http kv.get request counter missing")
	}
	if samples["pushpull_store_updates"] != 1 {
		t.Errorf("store updates gauge = %v, want 1", samples["pushpull_store_updates"])
	}
}

// parseExposition validates the Prometheus text format strictly enough to
// catch rendering bugs: TYPE-before-sample ordering, the metric-name
// alphabet, and float-parsable values.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		if !typed[fields[0]] {
			t.Fatalf("line %d: sample %q precedes its # TYPE", ln+1, fields[0])
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		samples[fields[0]] = v
	}
	return samples
}

func TestWatchSSE(t *testing.T) {
	edges := newEdges(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, edges[1].url("/v1/watch?prefix=sse/"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Publish on the *other* node: the event must arrive via gossip, then
	// stream out as SSE. A non-matching prefix must not appear.
	if _, err := edges[0].node.Publish(context.Background(), "other/key", []byte("hidden")); err != nil {
		t.Fatal(err)
	}
	if _, err := edges[0].node.Publish(context.Background(), "sse/key", []byte("shown")); err != nil {
		t.Fatal(err)
	}

	scanner := bufio.NewScanner(resp.Body)
	var event WatchEvent
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &event); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		break
	}
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	if event.Key != "sse/key" || string(event.Value) != "shown" {
		t.Fatalf("first event = %+v, want sse/key", event)
	}
	if event.Kind != "applied" || event.Source != "push" {
		t.Fatalf("event classification = %+v", event)
	}
}

func TestServerRequiresNode(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a node succeeded")
	}
}
