package live

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

func TestTCPTransportRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan wire.Envelope, 1)
	b.SetHandler(func(env wire.Envelope) { got <- env })

	env := wire.Envelope{Kind: wire.KindAck, From: a.Addr(),
		UpdateRef: store.Ref{Origin: "origin", Seq: 7}}
	if err := a.Send(b.Addr(), env); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case received := <-got:
		if received.Kind != wire.KindAck || received.UpdateRef != env.UpdateRef {
			t.Fatalf("received %+v", received)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no envelope received")
	}
}

func TestTCPSendToDeadAddressFails(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A port we just closed is very likely dead.
	dead, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	if err := a.Send(deadAddr, wire.Envelope{Kind: wire.KindPush}); err == nil {
		t.Fatal("send to closed listener succeeded")
	}
}

func TestTCPCloseStopsDelivery(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := a.Send("127.0.0.1:1", wire.Envelope{}); err == nil {
		t.Fatal("send on closed transport succeeded")
	}
}

func TestReplicasOverTCPConverge(t *testing.T) {
	const n = 5
	transports := make([]*TCPTransport, n)
	replicas := make([]*Replica, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[i] = tr.Addr()
		cfg := Config{
			Fanout:       3,
			PartialList:  true,
			PullAttempts: 2,
			PullInterval: 20 * time.Millisecond,
			Seed:         int64(i) + 1,
		}
		r, err := NewReplica(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
	}
	for i, r := range replicas {
		r.AddPeers(addrs...)
		r.Start()
		i := i
		t.Cleanup(func() {
			replicas[i].Stop()
			transports[i].Close()
		})
	}

	replicas[0].Publish("tcp-key", []byte("payload"))
	eventually(t, 5*time.Second, func() bool {
		for _, r := range replicas {
			rev, ok := r.Get("tcp-key")
			if !ok || string(rev.Value) != "payload" {
				return false
			}
		}
		return true
	}, "TCP replicas did not converge")
}

// TestTCPTruncatedFrameDropsConnCleanly simulates a peer crashing mid-frame:
// the victim's reader must drop that connection without wedging the
// transport — later, well-formed traffic (including from the same origin
// address) keeps flowing in both directions.
func TestTCPTruncatedFrameDropsConnCleanly(t *testing.T) {
	victim, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	got := make(chan wire.Envelope, 4)
	victim.SetHandler(func(env wire.Envelope) { got <- env })

	// A raw connection writes a frame header promising more bytes than ever
	// arrive, then dies — the crash-mid-frame shape.
	raw, err := net.Dial("tcp", victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	full, err := wire.AppendFrame(nil, &wire.Envelope{
		Kind: wire.KindPush, From: "liar",
		Update: wire.Update{Origin: "o", Seq: 1, Key: "k", Value: []byte("v")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	select {
	case env := <-got:
		t.Fatalf("truncated frame delivered an envelope: %+v", env)
	case <-time.After(50 * time.Millisecond):
	}

	// The transport still serves fresh connections and can still send.
	peer, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	echoed := make(chan wire.Envelope, 1)
	peer.SetHandler(func(env wire.Envelope) { echoed <- env })

	env := wire.Envelope{Kind: wire.KindQuery, From: peer.Addr(), QID: 42, Key: "k"}
	if err := peer.Send(victim.Addr(), env); err != nil {
		t.Fatalf("send to victim after truncated frame: %v", err)
	}
	select {
	case in := <-got:
		if in.Kind != wire.KindQuery || in.QID != 42 {
			t.Fatalf("victim received %+v", in)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("victim wedged: no delivery after truncated frame")
	}
	if err := victim.Send(peer.Addr(), wire.Envelope{
		Kind: wire.KindQueryResp, From: victim.Addr(), QID: 42, Key: "k",
	}); err != nil {
		t.Fatalf("victim send: %v", err)
	}
	select {
	case <-echoed:
	case <-time.After(2 * time.Second):
		t.Fatal("victim's outbound pool wedged after truncated inbound frame")
	}
}

// TestTCPSendResumesAfterReceiverRestart restarts a receiver on the same
// address: the sender's pooled connection is now stale, and sends must
// resume over exactly one new connection — one eviction and one redial, not
// a redial per layer.
func TestTCPSendResumesAfterReceiverRestart(t *testing.T) {
	sender, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	first, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr()
	got := make(chan int64, 16)
	first.SetHandler(func(env wire.Envelope) { got <- env.QID })
	if err := sender.Send(addr, wire.Envelope{Kind: wire.KindQuery, QID: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before the restart")
	}
	first.Close()

	// The restarted receiver counts the connections it accepts.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				fr := wire.NewFrameReader(bufio.NewReader(conn))
				var env wire.Envelope
				for fr.ReadEnvelope(&env) == nil {
					got <- env.QID
				}
			}()
		}
	}()

	// The first send after the restart may vanish into the stale socket;
	// keep sending until one arrives.
	deadline := time.Now().Add(5 * time.Second)
	var qid int64 = 1
	for resumed := false; !resumed; {
		if time.Now().After(deadline) {
			t.Fatal("sends did not resume after the receiver restarted")
		}
		qid++
		_ = sender.Send(addr, wire.Envelope{Kind: wire.KindQuery, QID: qid})
		select {
		case <-got:
			resumed = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	for i := 0; i < 3; i++ {
		qid++
		if err := sender.Send(addr, wire.Envelope{Kind: wire.KindQuery, QID: qid}); err != nil {
			t.Fatalf("send after resuming: %v", err)
		}
	}
	for received := 0; received < 3; {
		select {
		case q := <-got:
			if q > qid-3 {
				received++
			}
		case <-time.After(2 * time.Second):
			t.Fatal("sends after resuming were lost")
		}
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("receiver accepted %d connections after its restart, want 1", n)
	}
}

func TestWireEncodeDecode(t *testing.T) {
	env := wire.Envelope{
		Kind: wire.KindPullReq,
		From: "a:1",
		Clock: version.Clock{
			"x": 3, "y": 9,
		},
	}
	raw, err := wire.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != env.Kind || back.From != env.From || back.Clock["y"] != 9 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if _, err := wire.Decode([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestWireUpdateConversion(t *testing.T) {
	hub := NewHub()
	tr, err := hub.Attach(fmt.Sprintf("w-%p", t))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Config{Fanout: 0, Seed: 9}, tr)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := r.Publish("k", []byte("v"))

	back := wire.FromStore(u).ToStore()
	if back.ID() != u.ID() || string(back.Value) != string(u.Value) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, u)
	}
	if len(back.Version) != len(u.Version) || back.Version[0] != u.Version[0] {
		t.Fatal("version history corrupted")
	}
}
