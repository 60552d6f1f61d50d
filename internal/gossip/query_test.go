package gossip

import (
	"testing"

	"github.com/p2pgossip/update/internal/churn"
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/simnet"
)

func TestQueryReturnsValue(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.Fr = 0.3
	cfg.NewPF = nil
	net, en := buildEngine(t, 20, cfg, 20, churn.Static{}, 30)
	en.Step()
	net.Peers[0].Publish(envOf(t, en, 0), "price", []byte("42"))
	en.Run(15)

	qid := net.Peers[7].Query(envOf(t, en, 7), "price", 3)
	en.Run(8)
	res, ok := net.Peers[7].QueryResult(qid)
	if !ok {
		t.Fatal("query id unknown")
	}
	if !res.Done {
		t.Fatalf("query not done: %+v", res)
	}
	if !res.Found || string(res.Value) != "42" {
		t.Fatalf("result = %+v", res)
	}
	if res.Responses != 3 {
		t.Fatalf("responses = %d, want 3", res.Responses)
	}
	if en.Metrics().Counter(MetricQueries) != 3 {
		t.Fatalf("queries metric = %g", en.Metrics().Counter(MetricQueries))
	}
}

func TestQueryPicksFreshestVersion(t *testing.T) {
	// Two sequential updates: replicas answering with the older version must
	// lose to the newer one.
	cfg := DefaultConfig(10)
	cfg.Fr = 0.5
	cfg.NewPF = nil
	net, en := buildEngine(t, 10, cfg, 10, churn.Static{}, 31)
	en.Step()
	net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("old"))
	en.Run(10)
	// Second update applied only at a subset: publish with tiny fanout.
	u2 := net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("new"))
	// Deliver directly to peer 1 only (simulating partial spread).
	net.Peers[1].HandleMessage(envOf(t, en, 1), simnet.Message{
		From: 0, To: 1, Payload: engine.Message[int]{Kind: engine.KindPush, Update: u2, T: 0},
	})

	// Query everyone: at least one responder (0 or 1) has "new"; it must
	// win by version dominance over the stale answers.
	qid := net.Peers[5].Query(envOf(t, en, 5), "k", 9)
	en.Run(8)
	res, _ := net.Peers[5].QueryResult(qid)
	if !res.Done || !res.Found {
		t.Fatalf("result = %+v", res)
	}
	if string(res.Value) != "new" {
		t.Fatalf("query returned stale value %q", res.Value)
	}
}

func TestQueryMissingKey(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Fr = 0.4
	cfg.NewPF = nil
	net, en := buildEngine(t, 5, cfg, 5, churn.Static{}, 32)
	en.Step()
	qid := net.Peers[0].Query(envOf(t, en, 0), "ghost", 2)
	en.Run(6)
	res, _ := net.Peers[0].QueryResult(qid)
	if !res.Done || res.Found {
		t.Fatalf("result = %+v", res)
	}
	if res.Responses != 2 {
		t.Fatalf("responses = %d", res.Responses)
	}
}

func TestQueryTimesOutWithOfflineResponders(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Fr = 0.3
	cfg.NewPF = nil
	// 1 online peer (the querier); every target is offline.
	net, en := buildEngine(t, 10, cfg, 1, churn.Static{}, 33)
	en.Step()
	qid := net.Peers[0].Query(envOf(t, en, 0), "k", 3)
	for i := 0; i < 15; i++ {
		en.Step()
	}
	res, _ := net.Peers[0].QueryResult(qid)
	if !res.Done {
		t.Fatal("query never timed out")
	}
	if res.Responses != 0 || res.Found {
		t.Fatalf("result = %+v", res)
	}
}

func TestQueryEmptyViewResolvesLocally(t *testing.T) {
	cfg := DefaultConfig(5)
	p, err := NewPeer(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	en, err := simnet.NewEngine(simnet.Config{
		Nodes: []simnet.Node{p}, InitialOnline: 1, Seed: 34,
	})
	if err != nil {
		t.Fatal(err)
	}
	en.Step()
	env := simnet.NewTestEnv(en, 0)
	p.Publish(env, "local", []byte("here"))
	qid := p.Query(env, "local", 3)
	res, ok := p.QueryResult(qid)
	if !ok || !res.Done || !res.Found || string(res.Value) != "here" {
		t.Fatalf("local resolution failed: %+v ok=%v", res, ok)
	}
}

func TestQueryTriggersLazyPull(t *testing.T) {
	// §6: a query hitting a not-confident (lazily woken) replica makes it
	// pull. The response is flagged unconfident.
	cfg := DefaultConfig(10)
	cfg.Fr = 0.3
	cfg.NewPF = nil
	cfg.LazyPull = true
	net, en := buildEngine(t, 10, cfg, 9, churn.Static{}, 35)
	en.Step()
	net.Peers[0].Publish(envOf(t, en, 0), "k", []byte("v"))
	en.Run(10)

	// Peer 9 wakes lazily: no eager pull, not confident.
	en.Population().SetOnline(9, true)
	net.Peers[9].CameOnline(envOf(t, en, 9))
	pullsBefore := en.Metrics().Counter(MetricPullRequests)

	// Query peer 9 directly.
	net.Peers[9].HandleMessage(envOf(t, en, 9), simnet.Message{
		From: 3, To: 9, Payload: engine.Message[int]{Kind: engine.KindQuery, QID: 77, Key: "k"},
	})
	en.Run(6)
	if got := en.Metrics().Counter(MetricPullRequests); got <= pullsBefore {
		t.Fatal("query did not trigger the lazy peer's pull")
	}
	// And the lazy peer is now synced.
	if !net.Peers[9].HasUpdate("peer-0/1") {
		t.Fatal("lazy peer still stale after query-triggered pull")
	}
}

func TestQueryUnknownID(t *testing.T) {
	cfg := DefaultConfig(5)
	p, err := NewPeer(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.QueryResult(999); ok {
		t.Fatal("unknown query id reported present")
	}
}
