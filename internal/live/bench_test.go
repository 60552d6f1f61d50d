package live

// Benchmarks for the live wire path. The round-trip benchmark is the
// transport-level hot path: one envelope to a peer and the peer's reply —
// the shape of every push/ack and pull-request/pull-response exchange.

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// BenchmarkTCPRoundTrip measures one request envelope sent to a peer plus the
// peer's response envelope, over real TCP on loopback. Both directions reuse
// an established connection, the binary codec, and the inline write path, so
// the cost is dominated by the loopback syscalls.
func BenchmarkTCPRoundTrip(b *testing.B) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	peer, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()

	// The peer answers every pull request with a small pull response; the
	// requester signals each completed round trip.
	done := make(chan struct{}, 1)
	resp := wire.Envelope{
		Kind: wire.KindPullResp, From: peer.Addr(),
		Updates: []wire.Update{{
			Origin: "writer", Seq: 1, Key: "key", Value: []byte("value"),
		}},
	}
	peer.SetHandler(func(env wire.Envelope) {
		if env.Kind == wire.KindPullReq {
			_ = peer.Send(env.From, resp)
		}
	})
	a.SetHandler(func(env wire.Envelope) {
		if env.Kind == wire.KindPullResp {
			done <- struct{}{}
		}
	})

	req := wire.Envelope{
		Kind: wire.KindPullReq, From: a.Addr(),
		Clock: version.Clock{"writer": 0},
	}
	// One watchdog for the whole run, sized to b.N: a per-iteration
	// time.After would charge a timer allocation to every round trip.
	watchdog := time.NewTimer(time.Minute + time.Duration(b.N)*time.Millisecond)
	defer watchdog.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(peer.Addr(), req); err != nil {
			b.Fatalf("send: %v", err)
		}
		select {
		case <-done:
		case <-watchdog.C:
			b.Fatal("round trip timed out")
		}
	}
}

// BenchmarkLiveSustainedPublish is the throughput benchmark of the live
// path: parallel publishers drive replicas of a 5-node TCP loopback mesh,
// each Publish fanning its push out to the other four peers through the
// engine, the batched envelope encoding, and the per-connection writers.
// It reports sustained updates/sec alongside the usual ns/op and B/op.
func BenchmarkLiveSustainedPublish(b *testing.B) {
	const n = 5
	transports := make([]*TCPTransport, n)
	replicas := make([]*Replica, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		transports[i] = tr
		addrs[i] = tr.Addr()
		r, err := NewReplica(Config{
			Fanout:      n - 1,
			PartialList: true,
			Seed:        int64(i) + 1,
			// No pull phase: the benchmark isolates the push fanout path.
			PullAttempts: 0,
		}, tr)
		if err != nil {
			b.Fatal(err)
		}
		replicas[i] = r
	}
	for i := range replicas {
		replicas[i].AddPeers(addrs...)
		replicas[i].Start()
		i := i
		defer func() {
			replicas[i].Stop()
			transports[i].Close()
		}()
	}

	value := []byte("sustained-throughput-payload")
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Spread publishers across the mesh so every replica both fans out
		// and ingests.
		r := replicas[int(seq.Add(1))%n]
		i := 0
		for pb.Next() {
			r.Publish(fmt.Sprintf("key-%d", i%64), value)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkLiveParallelIngest measures one replica absorbing pushes from
// several TCP peers at once — the multi-core ingest path the sharded store
// and the pre-apply pipeline exist for. Four senders blast unique pushes
// (distinct origins, so their applies stripe across log shards) at one
// target; each connection gets its own reader goroutine, which applies to
// the lock-striped store before entering the engine's critical section. The
// sub-benchmarks pin GOMAXPROCS to 1, 2, and 4, and each reports sustained
// updates/s at the receiver.
func BenchmarkLiveParallelIngest(b *testing.B) {
	for _, procs := range []int{1, 2, 4} {
		// "procs=N", not "-N": the go tool appends "-GOMAXPROCS" to
		// benchmark names, and tools that trim that suffix must not eat ours.
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			benchParallelIngest(b, 4)
		})
	}
}

func benchParallelIngest(b *testing.B, senders int) {
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	var applied atomic.Int64
	done := make(chan struct{})
	total := int64(b.N)
	target, err := NewReplica(Config{
		// Pure ingest: no forwarding, no pulls, no acks.
		Fanout:       0,
		PullAttempts: 0,
		Seed:         1,
		Hooks: Hooks{
			OnApply: func(store.Update, store.ApplyResult, Source, int) {
				if applied.Add(1) == total {
					close(done)
				}
			},
		},
	}, tr)
	if err != nil {
		b.Fatal(err)
	}
	target.Start()
	defer target.Stop()

	outs := make([]*TCPTransport, senders)
	for s := range outs {
		out, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		outs[s] = out
		defer out.Close()
	}

	stamp := time.Unix(1_700_000_000, 0)
	watchdog := time.NewTimer(time.Minute + time.Duration(b.N)*time.Millisecond)
	defer watchdog.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < senders; s++ {
		count := b.N / senders
		if s < b.N%senders {
			count++
		}
		go func(s, count int) {
			out := outs[s]
			origin := fmt.Sprintf("ingest-%d", s)
			rng := rand.New(rand.NewSource(int64(s) + 1))
			env := wire.Envelope{Kind: wire.KindPush, From: out.Addr()}
			for seq := 1; seq <= count; seq++ {
				env.Update = wire.Update{
					Origin:  origin,
					Seq:     uint64(seq),
					Key:     fmt.Sprintf("k-%d-%d", s, seq),
					Value:   []byte("parallel-ingest-payload"),
					Version: version.History{version.NewID(stamp, origin, rng)},
					Stamp:   stamp.UnixNano(),
				}
				if err := out.Send(tr.Addr(), env); err != nil {
					b.Errorf("send: %v", err)
					return
				}
			}
		}(s, count)
	}
	select {
	case <-done:
	case <-watchdog.C:
		b.Fatalf("ingest stalled at %d/%d applies", applied.Load(), b.N)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkLiveThrottledPeer measures slow-consumer isolation: a publisher
// replica fans every update out to three fast TCP peers and one slow sink
// that drains its socket at ~128KB/s (the "throttled" variant) or at full
// speed ("unthrottled"). The coalescing per-peer senders must keep the fast
// peers unaffected — their apply rate ("updates/s", measured at a fast peer)
// should match across the two variants — while the slow link's backlog
// merges into one pending delta instead of queueing, so the throttled
// variant also reports the publisher's peak pending sender memory
// ("pendingB/peak"), which stays O(live keys) however many updates the sink
// refused.
func BenchmarkLiveThrottledPeer(b *testing.B) {
	b.Run("unthrottled", func(b *testing.B) { benchThrottledPeer(b, false) })
	b.Run("throttled", func(b *testing.B) { benchThrottledPeer(b, true) })
}

func benchThrottledPeer(b *testing.B, throttled bool) {
	// The slow peer is a raw TCP sink, not a replica: it accepts the
	// publisher's connection and reads it in small sips, which is exactly
	// the kernel-buffer backpressure a wedged consumer exerts, without a
	// second replica's timing in the measurement.
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if throttled {
						time.Sleep(2 * time.Millisecond)
					}
				}
			}(c)
		}
	}()

	// One fast peer counts what it absorbs. The publisher's sender may
	// legitimately coalesce dominated same-key pushes while a link is busy,
	// so the benchmark cannot wait for exactly b.N applies; instead a
	// unique marker key published last signals that everything the sender
	// kept has been delivered (per-destination pending drains in deposit
	// order).
	const markerKey = "flush-marker"
	var applied, delivered atomic.Int64
	done := make(chan struct{})
	const fastPeers = 3
	fast := make([]*TCPTransport, fastPeers)
	for i := 0; i < fastPeers; i++ {
		tr, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		fast[i] = tr
		cfg := Config{
			// Pure receivers: no forwarding, no pulls.
			Fanout:       0,
			PullAttempts: 0,
			Seed:         int64(i) + 2,
		}
		if i == 0 {
			cfg.Hooks.OnApply = func(u store.Update, _ store.ApplyResult, _ Source, _ int) {
				n := applied.Add(1)
				if u.Key == markerKey {
					delivered.Store(n)
					close(done)
				}
			}
		}
		r, err := NewReplica(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		i := i
		defer func() {
			r.Stop()
			fast[i].Close()
		}()
	}

	pubTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	pub, err := NewReplica(Config{
		// Fanout == peer count: every push deterministically targets all
		// three fast peers and the sink.
		Fanout:       fastPeers + 1,
		PartialList:  true,
		Seed:         1,
		PullAttempts: 0,
	}, pubTr)
	if err != nil {
		b.Fatal(err)
	}
	peers := []string{sink.Addr().String()}
	for _, tr := range fast {
		peers = append(peers, tr.Addr())
	}
	pub.AddPeers(peers...)
	pub.Start()
	defer func() {
		pub.Stop()
		pubTr.Close()
	}()

	value := []byte("throttled-peer-payload")
	watchdog := time.NewTimer(time.Minute + time.Duration(b.N)*time.Millisecond)
	defer watchdog.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish(fmt.Sprintf("key-%d", i%64), value)
	}
	pub.Publish(markerKey, value)
	select {
	case <-done:
	case <-watchdog.C:
		b.Fatalf("fast peer stalled at %d applies before the marker", applied.Load())
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "updates/s")
	if throttled {
		_, peak := pub.PendingSendBytes()
		b.ReportMetric(float64(peak), "pendingB/peak")
	}
}

// BenchmarkTCPSendBurst measures a one-way burst of push envelopes to a
// single peer, the shape of the push phase's fanout loop.
func BenchmarkTCPSendBurst(b *testing.B) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	peer, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()

	received := make(chan struct{}, 1024)
	peer.SetHandler(func(wire.Envelope) { received <- struct{}{} })

	env := wire.Envelope{
		Kind: wire.KindPush, From: a.Addr(),
		Update: wire.Update{Origin: "writer", Seq: 1, Key: "key", Value: []byte("value")},
		RF:     []string{"peer-1", "peer-2", "peer-3"},
		T:      1,
	}
	watchdog := time.NewTimer(time.Minute + time.Duration(b.N)*time.Millisecond)
	defer watchdog.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(peer.Addr(), env); err != nil {
			b.Fatalf("send: %v", err)
		}
		select {
		case <-received:
		case <-watchdog.C:
			b.Fatal("delivery timed out")
		}
	}
}

// BenchmarkRecoverWAL measures a restart's recovery: open a write-ahead log
// of 40,000 updates over 10,000 keys — the repo benchmark's rejoin prefill,
// every key written four times with 128-byte values — and replay it into a
// fresh replica's store. In log the records sit in segments; in checkpoint
// a checkpoint holds them and a 4,000-record tail follows in a segment.
// recovery-ms/op is the time from wal.Open to RecoverWAL returning.
func BenchmarkRecoverWAL(b *testing.B) {
	b.Run("log", func(b *testing.B) { benchRecoverWAL(b, 0) })
	b.Run("checkpoint", func(b *testing.B) { benchRecoverWAL(b, 4000) })
}

// benchRecoverWAL is BenchmarkRecoverWAL for a log checkpointed before a
// tail of tail records, or not checkpointed when tail is 0.
func benchRecoverWAL(b *testing.B, tail int) {
	const prefill, keys = 40000, 10000
	records := prefill + tail
	dir := b.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	hub := NewHub()
	newReplica := func(addr string, seed int64, l *wal.Log) *Replica {
		tr, err := hub.Attach(addr)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Fanout: 2, PullInterval: time.Second, Seed: seed, WAL: l}
		r, err := NewReplica(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	w := newReplica("writer", 1, l)
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(keys)
	value := make([]byte, 128)
	rng.Read(value)
	for i := 0; i < records; i++ {
		if i == prefill {
			if _, err := w.CheckpointWAL(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.Publish(fmt.Sprintf("r/k%05d", order[i%keys]), value); err != nil {
			b.Fatal(err)
		}
	}
	w.Stop()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var recovering time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		r := newReplica(fmt.Sprintf("recovered-%d", i), int64(i+2), l)
		rec, err := r.RecoverWAL()
		recovering += time.Since(start)
		b.StopTimer()
		if err != nil || rec.Replayed != records {
			b.Fatalf("recovery = %+v, %v; want %d replayed", rec, err, records)
		}
		r.Stop()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		// Every recovery starts from the same heap, as a restarting
		// process's does, not from the last one's garbage.
		runtime.GC()
		b.StartTimer()
	}
	b.ReportMetric(float64(recovering)/float64(time.Millisecond)/float64(b.N), "recovery-ms/op")
}
