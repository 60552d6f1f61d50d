// Livecluster runs five nodes over real TCP sockets, publishes updates,
// "crashes" one node, keeps updating the survivors, and then restarts the
// crashed node from its write-ahead log — it reconciles the missed updates
// by pulling, exactly the paper's offline-peer story but with durable local
// state.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	pushpull "github.com/p2pgossip/update"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	const n = 5
	nodes := make([]*pushpull.Node, n)
	addrs := make([]string, n)

	// Node 4 logs every applied update to a write-ahead log in walDir.
	walDir, err := os.MkdirTemp("", "livecluster-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	openWAL := func() (*pushpull.WAL, error) {
		return pushpull.OpenWAL(pushpull.WALOptions{Dir: walDir})
	}
	wal, err := openWAL()
	if err != nil {
		return err
	}

	for i := 0; i < n; i++ {
		opts := []pushpull.Option{
			pushpull.WithTCP("127.0.0.1:0"),
			pushpull.WithPullInterval(50 * time.Millisecond),
			pushpull.WithSeed(int64(i) + 1),
		}
		if i == 4 {
			opts = append(opts, pushpull.WithWAL(wal))
		}
		node, err := pushpull.Open(opts...)
		if err != nil {
			return err
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	for _, node := range nodes {
		node.AddPeers(addrs...)
	}
	fmt.Printf("five replicas on TCP: %v\n", addrs)

	if _, err := nodes[0].Publish(ctx, "config/rate", []byte("100")); err != nil {
		return err
	}
	if err := waitAll(nodes, "config/rate", "100"); err != nil {
		return err
	}
	fmt.Println("update 1 reached all replicas")

	// Crash node 4: close it (drains the puller, frees the socket); only
	// its WAL directory survives.
	if err := nodes[4].Close(ctx); err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	fmt.Println("replica 4 crashed (state in its WAL)")

	// The survivors keep making progress.
	if _, err := nodes[1].Publish(ctx, "config/rate", []byte("250")); err != nil {
		return err
	}
	if _, err := nodes[2].Publish(ctx, "config/burst", []byte("16")); err != nil {
		return err
	}
	if err := waitAll(nodes[:4], "config/burst", "16"); err != nil {
		return err
	}
	fmt.Println("updates 2+3 reached the four survivors")

	// Restart node 4 on a fresh port, recovered from its WAL. It opens
	// peerless so the pre-crash state can be verified, then rejoins and
	// reconciles by pulling.
	if wal, err = openWAL(); err != nil {
		return err
	}
	defer wal.Close()
	restarted, err := pushpull.Open(
		pushpull.WithTCP("127.0.0.1:0"),
		pushpull.WithPullInterval(50*time.Millisecond),
		pushpull.WithSeed(99),
		pushpull.WithWAL(wal),
	)
	if err != nil {
		return err
	}
	defer restarted.Close(ctx)
	if rev, ok := restarted.Get("config/rate"); !ok || string(rev.Value) != "100" {
		return fmt.Errorf("WAL recovery lost state")
	}
	fmt.Printf("replica 4 restarted on %s from its WAL\n", restarted.Addr())
	restarted.AddPeers(addrs[:4]...)
	if err := restarted.Pull(ctx); err != nil {
		return err
	}

	if err := waitAll([]*pushpull.Node{restarted}, "config/rate", "250"); err != nil {
		return err
	}
	if err := waitAll([]*pushpull.Node{restarted}, "config/burst", "16"); err != nil {
		return err
	}
	fmt.Println("restarted replica pulled the updates it missed — cluster consistent")

	for _, node := range nodes[:4] {
		if err := node.Close(ctx); err != nil {
			return err
		}
	}
	return nil
}

func waitAll(nodes []*pushpull.Node, key, want string) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, node := range nodes {
			rev, ok := node.Get(key)
			if !ok || string(rev.Value) != want {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timeout waiting for %s=%s on %d replicas", key, want, len(nodes))
}
