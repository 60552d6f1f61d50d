package live

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wire"
)

// Tests for the coalescing per-peer senders: bounded sender memory behind a
// wedged consumer, recovery with the newest merged state after a peer
// restarts on its address, and a disconnecting peer taking down only its own
// pending state. The merge rules themselves are engine.Pending's and are
// tested there.

// TestSlowConsumerBoundedPending wedges one consumer completely — it accepts
// the publisher's connection and never reads a byte — while the publisher
// overwrites a small hot key set far past what any bounded queue would hold.
// The fast peer must still converge (slow-consumer isolation), deposits must
// visibly coalesce, and the publisher's peak pending sender memory must stay
// within a small multiple of the final live state, not the published
// traffic.
func TestSlowConsumerBoundedPending(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var sinkMu sync.Mutex
	var sinkConns []net.Conn
	defer func() {
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for _, c := range sinkConns {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			sinkMu.Lock()
			sinkConns = append(sinkConns, c) // held open, never read
			sinkMu.Unlock()
		}
	}()

	fastTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fastTr.Close()
	fast, err := NewReplica(Config{Fanout: 0, PullAttempts: 0, Seed: 2}, fastTr)
	if err != nil {
		t.Fatal(err)
	}
	fast.Start()
	defer fast.Stop()

	rec := &recordingMetrics{}
	pubTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewReplica(Config{
		Fanout:       2,
		PartialList:  true,
		PullAttempts: 0,
		Seed:         1,
		Metrics:      rec,
	}, pubTr)
	if err != nil {
		t.Fatal(err)
	}
	pub.AddPeers(fastTr.Addr(), sink.Addr().String())
	pub.Start()
	// The sink never drains, so its sender can be parked in a write at
	// Stop time: close the transport first to error the write out, then
	// stop the replica.
	defer pub.Stop()
	defer pubTr.Close()

	const keys, rounds = 8, 500
	final := make([]store.Update, keys)
	var totalTraffic int64
	for i := 0; i < rounds; i++ {
		for k := 0; k < keys; k++ {
			u, _ := pub.Publish(fmt.Sprintf("hot-%d", k), []byte(fmt.Sprintf("v%d", i)))
			final[k] = u
			totalTraffic += int64(u.SizeBytes())
		}
	}

	want := fmt.Sprintf("v%d", rounds-1)
	eventually(t, 10*time.Second, func() bool {
		for k := 0; k < keys; k++ {
			rev, ok := fast.Get(fmt.Sprintf("hot-%d", k))
			if !ok || string(rev.Value) != want {
				return false
			}
		}
		return true
	}, "fast peer starved behind a wedged consumer")

	if rec.observed()[MetricSendCoalesced] == 0 {
		t.Fatal("no deposit ever coalesced; the wedged link exerted no backpressure")
	}
	var liveBytes int64
	for _, u := range final {
		liveBytes += int64(u.SizeBytes())
	}
	_, peak := pub.PendingSendBytes()
	// O(state), with slack for both destinations' transient pending and the
	// byte-estimate constants — and far below the published traffic.
	bound := 4*liveBytes + 64<<10
	if peak > bound {
		t.Fatalf("peak pending %dB exceeds live-state bound %dB (live %dB)", peak, bound, liveBytes)
	}
	if totalTraffic < 4*bound {
		t.Fatalf("fixture too small: %dB published vs bound %dB — bound proves nothing", totalTraffic, bound)
	}
}

// TestSlowHubPeerDoesNotBlockPublish is the same property on the in-memory
// hub, whose delivery is a synchronous call into the receiver's handler: a
// peer whose handler blocks parks only the publisher's sender for it. Publish
// keeps returning, the pending delta stays O(keys) while a thousand
// overwrites pile up behind the blocked delivery, and once the handler is
// released the peer receives the newest version of every key.
func TestSlowHubPeerDoesNotBlockPublish(t *testing.T) {
	_, replicas := newCluster(t, 2, Config{Fanout: 1, PullAttempts: 0})
	pub, slow := replicas[0], replicas[1]
	blocked := make(chan struct{})
	release := sync.OnceFunc(func() { close(blocked) })
	slow.transport.SetHandler(func(env wire.Envelope) {
		<-blocked
		slow.handle(env)
	})
	// Cleanups run last in, first out: the handler is released before the
	// cluster's Stops wait for the sender it parks.
	t.Cleanup(release)

	const keys, rounds = 4, 250
	final := make([]store.Update, keys)
	var totalTraffic int64
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < rounds; i++ {
			for k := 0; k < keys; k++ {
				u, _ := pub.Publish(fmt.Sprintf("hot-%d", k), []byte(fmt.Sprintf("v%d", i)))
				final[k] = u
				totalTraffic += int64(u.SizeBytes())
			}
		}
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked behind a peer whose handler does not return")
	}

	var liveBytes int64
	for _, u := range final {
		liveBytes += int64(u.SizeBytes())
	}
	_, peak := pub.PendingSendBytes()
	bound := 2*liveBytes + 4<<10
	if peak > bound {
		t.Fatalf("peak pending %dB exceeds live-state bound %dB (live %dB)", peak, bound, liveBytes)
	}
	if totalTraffic < 4*bound {
		t.Fatalf("fixture too small: %dB published vs bound %dB — bound proves nothing", totalTraffic, bound)
	}

	release()
	eventually(t, 10*time.Second, func() bool {
		for k, u := range final {
			if rev, ok := slow.Get(fmt.Sprintf("hot-%d", k)); !ok || string(rev.Value) != string(u.Value) {
				return false
			}
		}
		return true
	}, "released peer did not receive the newest version of every key")
}

// TestPeerRestartReceivesMergedNewestState kills a peer, keeps publishing
// into its absence (deposits merge, rendered sends fail), restarts it on the
// same address, and asserts it ends up with the newest state — late-bound
// rendering plus pull anti-entropy make the whole outage repairable, with no
// writer queue to replay stale frames from.
func TestPeerRestartReceivesMergedNewestState(t *testing.T) {
	cfg := Config{
		Fanout:       1,
		PartialList:  true,
		PullAttempts: 1,
		PullInterval: 10 * time.Millisecond,
	}

	aTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aTr.Close()
	ca := cfg
	ca.Seed = 1
	a, err := NewReplica(ca, aTr)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Stop()

	bTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := bTr.Addr()
	cb := cfg
	cb.Seed = 2
	b1, err := NewReplica(cb, bTr)
	if err != nil {
		t.Fatal(err)
	}
	b1.AddPeers(aTr.Addr())
	b1.Start()

	a.AddPeers(addrB)
	a.Publish("k", []byte("v1"))
	eventually(t, 5*time.Second, func() bool {
		rev, ok := b1.Get("k")
		return ok && string(rev.Value) == "v1"
	}, "first revision never reached the peer")

	// Crash the peer. The publisher keeps overwriting: its pending delta
	// for addrB merges to the newest version and rendered sends fail
	// against the dead address.
	b1.Stop()
	bTr.Close()
	for i := 2; i <= 6; i++ {
		a.Publish("k", []byte(fmt.Sprintf("v%d", i)))
	}

	// Restart on the same address (retry the bind: the kernel may briefly
	// hold the port).
	var bTr2 *TCPTransport
	deadline := time.Now().Add(5 * time.Second)
	for {
		bTr2, err = ListenTCP(addrB)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addrB, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer bTr2.Close()
	cb2 := cfg
	cb2.Seed = 9
	b2, err := NewReplica(cb2, bTr2)
	if err != nil {
		t.Fatal(err)
	}
	b2.AddPeers(aTr.Addr())
	b2.Start()
	defer b2.Stop()

	a.Publish("k", []byte("v7"))
	eventually(t, 5*time.Second, func() bool {
		rev, ok := b2.Get("k")
		return ok && string(rev.Value) == "v7"
	}, "restarted peer never received the newest revision")
	eventually(t, 5*time.Second, func() bool {
		return b2.Store().Equal(a.Store())
	}, "restarted peer never reconciled the revisions it missed")
}

// TestDisconnectMidCoalesceDropsOnlyItsPending hammers a replica with
// concurrent publishers while one of its two peers churns connections —
// accepting and immediately closing, then disappearing entirely. The
// healthy peer must converge on every final value, and once the flood stops
// the publisher's pending gauge must return to zero: the dead peer's
// pending state is dropped with it, nobody else's. Run it under -race (make
// race) — the deposit/deliver/redial interleavings are the point.
func TestDisconnectMidCoalesceDropsOnlyItsPending(t *testing.T) {
	churn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer churn.Close()
	go func() {
		for {
			c, err := churn.Accept()
			if err != nil {
				return
			}
			// Read a little, then slam the connection shut mid-stream.
			buf := make([]byte, 64)
			c.Read(buf)
			c.Close()
		}
	}()

	healthyTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthyTr.Close()
	healthy, err := NewReplica(Config{Fanout: 0, PullAttempts: 0, Seed: 2}, healthyTr)
	if err != nil {
		t.Fatal(err)
	}
	healthy.Start()
	defer healthy.Stop()

	pubTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewReplica(Config{
		Fanout:       2,
		PartialList:  true,
		PullAttempts: 0,
		Seed:         1,
	}, pubTr)
	if err != nil {
		t.Fatal(err)
	}
	pub.AddPeers(healthyTr.Addr(), churn.Addr().String())
	pub.Start()
	defer pub.Stop()
	defer pubTr.Close()

	const publishers, perPublisher, keysPer = 3, 300, 8
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				pub.Publish(fmt.Sprintf("g%d-k%d", g, i%keysPer), []byte(fmt.Sprintf("v%d", i)))
			}
		}(g)
	}
	wg.Wait()
	// The churning peer disconnects for good mid-coalesce.
	churn.Close()

	eventually(t, 10*time.Second, func() bool {
		for g := 0; g < publishers; g++ {
			for k := 0; k < keysPer; k++ {
				// Final value of key k: the last i in [0,perPublisher) with
				// i % keysPer == k.
				last := (perPublisher-1-k)/keysPer*keysPer + k
				rev, ok := pub.Get(fmt.Sprintf("g%d-k%d", g, k))
				if !ok || string(rev.Value) != fmt.Sprintf("v%d", last) {
					return false
				}
				rev, ok = healthy.Get(fmt.Sprintf("g%d-k%d", g, k))
				if !ok || string(rev.Value) != fmt.Sprintf("v%d", last) {
					return false
				}
			}
		}
		return true
	}, "healthy peer missed final values behind a churning sibling")

	eventually(t, 10*time.Second, func() bool {
		current, _ := pub.PendingSendBytes()
		return current == 0
	}, "pending gauge never drained after the churning peer died")
}

// TestIdleSenderRetiresAndRespawns drives the idle-retire path step by step:
// a registered sender without a goroutine stands in for its run loop, so no
// idle timer is waited on. A sender holding a deposit refuses to retire;
// drained, it deregisters; the next send for its destination spawns a fresh
// sender, which delivers, and the pending gauge ends at zero.
func TestIdleSenderRetiresAndRespawns(t *testing.T) {
	sink := &frameSink{}
	r, err := NewReplica(Config{Fanout: 1, Seed: 1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.AddPeers("dst")
	s := newPeerSender(r, "dst")
	r.mu.Lock()
	r.senders["dst"] = s
	r.mu.Unlock()

	if _, err := r.Publish("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if s.tryRetire() {
		t.Fatal("a sender holding a deposit retired")
	}
	s.deliver()
	if n := sink.frames.Load(); n != 1 {
		t.Fatalf("deliver sent %d frames, want 1", n)
	}
	if !s.tryRetire() {
		t.Fatal("a drained sender did not retire")
	}
	r.mu.Lock()
	_, registered := r.senders["dst"]
	r.mu.Unlock()
	if registered {
		t.Fatal("a retired sender is still registered")
	}

	if _, err := r.Publish("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	fresh := r.senders["dst"]
	r.mu.Unlock()
	if fresh == nil || fresh == s {
		t.Fatal("the next send did not spawn a fresh sender")
	}
	eventually(t, 10*time.Second, func() bool { return sink.frames.Load() == 2 },
		"the fresh sender did not deliver")
	if cur, _ := r.PendingSendBytes(); cur != 0 {
		t.Fatalf("pending gauge reads %d after every deposit was sent, want 0", cur)
	}
}
