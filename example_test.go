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

// ExampleNode_Pull brings back a replica that missed an update while it was
// offline: one Pull reconciles it, and its Watch stream reports the update
// as pulled. The publisher has never heard of the offline replica, so
// nothing reaches it by push.
func ExampleNode_Pull() {
	ctx := context.Background()
	hub := pushpull.NewHub()
	hub.SetOnline("r2", false)
	var nodes []*pushpull.Node
	for i, opts := range [][]pushpull.Option{
		{pushpull.WithHub(hub, "r1")},
		{pushpull.WithHub(hub, "r2"), pushpull.WithPeers("r1")},
	} {
		// Pull interval 0: no periodic pulls, only the explicit one below.
		node, err := pushpull.Open(append(opts, pushpull.WithPullInterval(0), pushpull.WithSeed(int64(i)+1))...)
		if err != nil {
			fmt.Println("open:", err)
			return
		}
		nodes = append(nodes, node)
		defer node.Close(ctx)
	}
	r1, r2 := nodes[0], nodes[1]

	events, err := r2.Watch(ctx, "")
	if err != nil {
		fmt.Println("watch:", err)
		return
	}
	if _, err := r1.Publish(ctx, "motd", []byte("hello")); err != nil {
		fmt.Println("publish:", err)
		return
	}
	_, ok := r2.Get("motd")
	fmt.Println("r2 has motd while offline:", ok)

	hub.SetOnline("r2", true)
	if err := r2.Pull(ctx); err != nil {
		fmt.Println("pull:", err)
		return
	}
	select {
	case ev := <-events:
		fmt.Printf("r2 sees %s=%s by %s\n", ev.Update.Key, ev.Update.Value, ev.Source)
	case <-time.After(2 * time.Second):
		fmt.Println("timed out")
	}
	// Output:
	// r2 has motd while offline: false
	// r2 sees motd=hello by pull
}
