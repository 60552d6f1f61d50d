package live

import (
	"fmt"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/wal"
)

// TestCrashRestartReconvergesViaPull kills a replica mid-gossip, restarts it
// from its write-ahead log on the same address, and asserts it reconverges
// on the writes it missed through pull anti-entropy.
func TestCrashRestartReconvergesViaPull(t *testing.T) {
	cfg := walConfig()
	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{})
	hub := NewHub()
	const n = 3
	addrs := make([]string, n)
	transports := make([]*MemTransport, n)
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("replica-%d", i)
		tr, err := hub.Attach(addrs[i])
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		transports[i] = tr
		c := cfg
		c.Seed = int64(i) + 1
		if i == 2 {
			c.WAL = l
		}
		r, err := NewReplica(c, tr)
		if err != nil {
			t.Fatalf("new replica: %v", err)
		}
		replicas[i] = r
	}
	for _, r := range replicas {
		r.AddPeers(addrs...)
	}
	for _, r := range replicas {
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	victim := replicas[2]
	pre, _ := replicas[0].Publish("pre", []byte("1"))
	eventually(t, 2*time.Second, func() bool {
		return victim.HasUpdate(pre.ID())
	}, "pre-crash update never reached the victim")

	// Crash: tear the process down — the puller stops and the address
	// detaches from the hub, so in-flight and future traffic to it fails
	// like a dead TCP endpoint. The WAL directory is all that survives.
	victim.Stop()
	if err := transports[2].Close(); err != nil {
		t.Fatalf("close transport: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Life goes on without it.
	mid, _ := replicas[1].Publish("mid", []byte("2"))
	del, _ := replicas[0].Delete("pre")
	eventually(t, 2*time.Second, func() bool {
		return replicas[0].HasUpdate(mid.ID()) && replicas[1].HasUpdate(del.ID())
	}, "survivors did not converge while the victim was down")

	// Restart on the same address: fresh process, state recovered from the
	// WAL, peers from the (static) seed list.
	l2 := openWAL(t, dir, wal.Options{})
	defer l2.Close()
	tr, err := hub.Attach(addrs[2])
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	c := cfg
	c.Seed = 99
	c.WAL = l2
	restarted, err := NewReplica(c, tr)
	if err != nil {
		t.Fatalf("restart replica: %v", err)
	}
	if _, err := restarted.RecoverWAL(); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	// The recovered state is visible before any network traffic.
	if rev, ok := restarted.Get("pre"); !ok || string(rev.Value) != "1" {
		t.Fatalf("logged state missing after recovery: %v %v", rev, ok)
	}
	restarted.AddPeers(addrs...)
	restarted.Start() // eager pull kicks off recovery
	defer restarted.Stop()

	eventually(t, 2*time.Second, func() bool {
		return restarted.HasUpdate(mid.ID()) && restarted.HasUpdate(del.ID())
	}, "restarted replica never recovered the missed writes by pull")
	if rev, ok := restarted.Get("mid"); !ok || string(rev.Value) != "2" {
		t.Fatalf("recovered value = %v %v", rev, ok)
	}
	if _, ok := restarted.Get("pre"); ok {
		t.Fatal("tombstone published while down not applied on recovery")
	}
	if !restarted.Store().Equal(replicas[0].Store()) {
		t.Fatal("restarted replica store diverges from a survivor")
	}
}
