package pushpull_test

import (
	"context"
	"fmt"
	"time"

	pushpull "github.com/p2pgossip/update"
)

// ExampleOpen builds a three-node in-memory cluster, publishes an update,
// and observes it arriving on another node's Watch stream.
func ExampleOpen() {
	ctx := context.Background()
	hub := pushpull.NewHub()
	addrs := []string{"r1", "r2", "r3"}
	var nodes []*pushpull.Node
	for i, addr := range addrs {
		node, err := pushpull.Open(
			pushpull.WithHub(hub, addr),
			pushpull.WithPullInterval(5*time.Millisecond),
			pushpull.WithSeed(int64(i)+1),
			pushpull.WithPeers(addrs...),
		)
		if err != nil {
			fmt.Println("open:", err)
			return
		}
		nodes = append(nodes, node)
		defer node.Close(ctx)
	}

	events, err := nodes[2].Watch(ctx, "")
	if err != nil {
		fmt.Println("watch:", err)
		return
	}
	if _, err := nodes[0].Publish(ctx, "motd", []byte("hello")); err != nil {
		fmt.Println("publish:", err)
		return
	}
	select {
	case ev := <-events:
		fmt.Printf("r3 sees %s=%s\n", ev.Update.Key, ev.Update.Value)
	case <-time.After(2 * time.Second):
		fmt.Println("timed out")
	}
	// Output: r3 sees motd=hello
}
