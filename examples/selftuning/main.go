// Selftuning reproduces the paper's §6 argument on the live runtime: static
// PF = 1 wastes messages on duplicates; a decaying schedule saves most of
// them; and the *self-tuning* schedule — driven only by locally observed
// duplicates and partial-list lengths — gets close to the tuned schedule
// without any global parameter choice. Each scheme runs an identical live
// cluster with its own metrics registry, so the message economies compare
// directly.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

const (
	replicas = 60
	trials   = 3
)

func run() error {
	schemes := []struct {
		name  string
		newPF func() pushpull.PFFunc
	}{
		{"PF = 1 (plain flooding)", nil},
		{"PF(t) = 0.9^t (tuned by hand)", func() pushpull.PFFunc { return pushpull.PFGeometric{Base: 0.9} }},
		{"adaptive (duplicates + list feedback)", func() pushpull.PFFunc { return pushpull.NewAdaptivePF(1.0) }},
	}

	tb := &metrics.Table{Header: []string{"scheme", "pushes/replica", "duplicates"}}
	totals := make([]float64, len(schemes))
	for si, s := range schemes {
		var pushes, dupes float64
		for trial := 0; trial < trials; trial++ {
			p, d, err := floodOnce(s.newPF, int64(trial)*1000)
			if err != nil {
				return err
			}
			pushes += p
			dupes += d
		}
		totals[si] = pushes / trials
		tb.AddRow(s.name, pushes/trials/replicas, dupes/trials)
	}
	fmt.Printf("one update across a live cluster of %d replicas, averaged over %d runs\n\n%s",
		replicas, trials, tb.String())
	if totals[0] <= totals[2] {
		return fmt.Errorf("plain flooding (%.0f pushes) should cost more than adaptive (%.0f)",
			totals[0], totals[2])
	}
	fmt.Println("\nthe adaptive schedule needs no tuning: it throttles itself where")
	fmt.Println("duplicates appear, which is exactly where the rumor is already known.")
	return nil
}

// floodOnce spreads one update through a fresh cluster under the given PF
// schedule and returns the push and duplicate counts.
func floodOnce(newPF func() pushpull.PFFunc, seedBase int64) (pushes, dupes float64, err error) {
	ctx := context.Background()
	hub := pushpull.NewHub()
	reg := pushpull.NewMetrics()
	nodes := make([]*pushpull.Node, replicas)
	addrs := make([]string, replicas)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("replica-%02d", i)
	}
	for i := range nodes {
		tr, err := hub.Attach(addrs[i])
		if err != nil {
			return 0, 0, err
		}
		node, err := pushpull.Open(
			pushpull.WithTransport(delayedLink{tr}),
			pushpull.WithPF(newPF),
			// Delivery is asynchronous: the flood needs real time to run its
			// course, and a replica that learns the update by pull first
			// never forwards it. The anti-entropy period is therefore long
			// against the flood and only heals the replicas PF(t) left out.
			pushpull.WithPullInterval(250*time.Millisecond),
			pushpull.WithSeed(seedBase+int64(i)+1),
			pushpull.WithMetrics(reg),
			pushpull.WithPeers(addrs...),
		)
		if err != nil {
			return 0, 0, err
		}
		nodes[i] = node
		defer node.Close(ctx)
	}

	if _, err := nodes[0].Publish(ctx, "k", []byte("v")); err != nil {
		return 0, 0, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		aware := 0
		for _, node := range nodes {
			if _, ok := node.Get("k"); ok {
				aware++
			}
		}
		if aware == replicas {
			// Settle briefly so in-flight forwards are counted too.
			time.Sleep(20 * time.Millisecond)
			return reg.Counter(pushpull.MetricPushSent), reg.Counter(pushpull.MetricPushDuplicate), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, 0, fmt.Errorf("cluster did not converge")
}

// linkLatency is the one-way delay of every link in the example's cluster.
// The in-memory hub has none, so on a busy CPU its replicas would handle the
// flood one message at a time: each forwarder would already hold a nearly
// complete flooding list, plain flooding would send almost no duplicates,
// and the comparison would measure the scheduler. A delay well above the
// handling time makes the pushes of one hop cross in flight, as the paper's
// rounds do, however loaded the machine is.
const linkLatency = 5 * time.Millisecond

// delayedLink is a hub transport whose sends take linkLatency. Send runs on
// the destination's own sender goroutine, so the delay holds up only that
// link, and pushes queued behind it coalesce as they would on a slow wire.
type delayedLink struct{ pushpull.Transport }

func (l delayedLink) Send(to string, env wire.Envelope) error {
	time.Sleep(linkLatency)
	return l.Transport.Send(to, env)
}
