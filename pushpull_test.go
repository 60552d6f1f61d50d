package pushpull_test

import (
	"context"
	"testing"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// TestPublicAPIQuickstart exercises the README quick-start path end to end
// through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	hub := pushpull.NewHub()
	ctx := context.Background()
	const n = 5
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = string(rune('a' + i))
	}
	nodes := make([]*pushpull.Node, n)
	for i := range nodes {
		node, err := pushpull.Open(
			pushpull.WithHub(hub, addrs[i]),
			pushpull.WithPeers(addrs...),
			pushpull.WithPullInterval(5*time.Millisecond),
			pushpull.WithSeed(int64(i)+1),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close(ctx)
		nodes[i] = node
	}
	if _, err := nodes[0].Publish(ctx, "greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, node := range nodes {
			if rev, ok := node.Get("greeting"); !ok || string(rev.Value) != "hello" {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("facade quickstart did not converge")
}

func TestPublicAdaptivePF(t *testing.T) {
	ad := pushpull.NewAdaptivePF(1.0)
	before := ad.P(0)
	ad.ObserveDuplicate()
	if ad.P(1) >= before {
		t.Fatal("adaptive PF did not decay")
	}
}
