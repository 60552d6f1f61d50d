package live

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// newCluster builds n replicas on a shared in-memory hub with full mutual
// knowledge and starts them.
func newCluster(t *testing.T, n int, cfg Config) (*Hub, []*Replica) {
	t.Helper()
	hub := NewHub()
	replicas := make([]*Replica, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("replica-%d", i)
		tr, err := hub.Attach(addrs[i])
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		c := cfg
		c.Seed = int64(i) + 1
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
		t.Cleanup(r.Stop)
	}
	return hub, replicas
}

// eventually polls cond every millisecond up to the deadline.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Fanout: -1},
		{ListMax: -1},
		{PullAttempts: -1},
		{PullInterval: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Config %+v should be invalid", bad)
		}
	}
	if err := DefaultReplicaConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestNewReplicaValidation(t *testing.T) {
	if _, err := NewReplica(Config{Fanout: -1}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewReplica(Config{}, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
}

func TestPushPropagatesInMemory(t *testing.T) {
	cfg := Config{Fanout: 4, PartialList: true, PullAttempts: 0}
	_, replicas := newCluster(t, 10, cfg)
	replicas[0].Publish("greeting", []byte("hello"))
	eventually(t, 2*time.Second, func() bool {
		for _, r := range replicas {
			if _, ok := r.Get("greeting"); !ok {
				return false
			}
		}
		return true
	}, "push did not reach every replica")
}

func TestOfflineReplicaCatchesUpViaPull(t *testing.T) {
	cfg := Config{
		Fanout:       4,
		PartialList:  true,
		PullAttempts: 3,
		PullInterval: 10 * time.Millisecond,
	}
	hub, replicas := newCluster(t, 8, cfg)
	hub.SetOnline("replica-7", false)

	replicas[0].Publish("doc", []byte("v1"))
	eventually(t, 2*time.Second, func() bool {
		for _, r := range replicas[:7] {
			if _, ok := r.Get("doc"); !ok {
				return false
			}
		}
		return true
	}, "online replicas did not sync")
	if _, ok := replicas[7].Get("doc"); ok {
		t.Fatal("offline replica received the update")
	}

	hub.SetOnline("replica-7", true)
	eventually(t, 2*time.Second, func() bool {
		_, ok := replicas[7].Get("doc")
		return ok
	}, "returning replica did not pull the update")
}

func TestDeletePropagates(t *testing.T) {
	cfg := Config{Fanout: 4, PartialList: true, PullAttempts: 2, PullInterval: 10 * time.Millisecond}
	_, replicas := newCluster(t, 6, cfg)
	replicas[0].Publish("k", []byte("v"))
	eventually(t, 2*time.Second, func() bool {
		_, ok := replicas[5].Get("k")
		return ok
	}, "put did not propagate")
	replicas[0].Delete("k")
	eventually(t, 2*time.Second, func() bool {
		for _, r := range replicas {
			if _, ok := r.Get("k"); ok {
				return false
			}
		}
		return true
	}, "delete did not propagate")
}

// TestAdaptivePFInLiveRuntime runs the adaptive schedule on the live path.
// Two replicas then publish at once, with fanout below N−1, so receipts are
// pushed on and duplicates arrive from concurrent connections: under -race
// this checks that the engine observes each schedule only under the
// replica's serialisation.
func TestAdaptivePFInLiveRuntime(t *testing.T) {
	metrics := &recordingMetrics{}
	cfg := Config{
		Fanout:       5,
		NewPF:        func() pf.Func { return pf.NewAdaptive(1.0) },
		PartialList:  true,
		PullAttempts: 2,
		PullInterval: 10 * time.Millisecond,
		Metrics:      metrics,
	}
	_, replicas := newCluster(t, 12, cfg)
	converged := func(keys ...string) func() bool {
		return func() bool {
			for _, r := range replicas {
				for _, k := range keys {
					if _, ok := r.Get(k); !ok {
						return false
					}
				}
			}
			return true
		}
	}
	replicas[3].Publish("adaptive", []byte("x"))
	eventually(t, 2*time.Second, converged("adaptive"), "adaptive cluster did not converge")

	var wg sync.WaitGroup
	for _, i := range []int{0, 7} {
		wg.Add(1)
		go func(r *Replica, key string) {
			defer wg.Done()
			r.Publish(key, []byte("y"))
		}(replicas[i], fmt.Sprintf("adaptive-%d", i))
	}
	wg.Wait()
	eventually(t, 2*time.Second, converged("adaptive-0", "adaptive-7"),
		"concurrent adaptive publishers did not converge")
	eventually(t, 2*time.Second, func() bool {
		got := metrics.observed()
		return got[MetricPushSent] > float64(3*cfg.Fanout) && got[MetricPushDuplicate] > 0
	}, "no push was forwarded, or no duplicate arrived")
}

func TestConcurrentPublishersConverge(t *testing.T) {
	cfg := Config{Fanout: 4, PartialList: true, PullAttempts: 3, PullInterval: 10 * time.Millisecond}
	_, replicas := newCluster(t, 8, cfg)
	for i, r := range replicas {
		go r.Publish(fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	eventually(t, 3*time.Second, func() bool {
		for _, r := range replicas {
			for i := range replicas {
				if _, ok := r.Get(fmt.Sprintf("key-%d", i)); !ok {
					return false
				}
			}
		}
		return true
	}, "concurrent publishers did not converge")
	// Stores must be pairwise equal.
	for i := 1; i < len(replicas); i++ {
		if !replicas[0].Store().Equal(replicas[i].Store()) {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

func TestHubSemantics(t *testing.T) {
	hub := NewHub()
	tr, err := hub.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Attach("a"); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	// No handler yet: delivery fails.
	if err := hub.deliver("a", wire.Envelope{}); err == nil {
		t.Fatal("delivery without handler succeeded")
	}
	got := 0
	tr.SetHandler(func(wire.Envelope) { got++ })
	tr2, err := hub.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	tr2.SetHandler(func(wire.Envelope) {})
	if err := tr2.Send("a", wire.Envelope{}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got != 1 {
		t.Fatalf("handler calls = %d", got)
	}
	// Unknown target.
	if err := tr2.Send("nobody", wire.Envelope{}); err == nil {
		t.Fatal("send to unknown address succeeded")
	}
	// Offline sender.
	hub.SetOnline("b", false)
	if err := tr2.Send("a", wire.Envelope{}); err == nil {
		t.Fatal("offline sender could send")
	}
	// Closed transport.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	hub.SetOnline("b", true)
	if err := tr2.Send("a", wire.Envelope{}); err == nil {
		t.Fatal("send to detached address succeeded")
	}
}

func TestReplicaPeersManagement(t *testing.T) {
	hub := NewHub()
	tr, err := hub.Attach("self")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Config{Fanout: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	r.AddPeers("self", "", "p1", "p2", "p1")
	peers := r.Peers()
	if len(peers) != 2 {
		t.Fatalf("peers = %v", peers)
	}
}

// TestEmptyAddressNotLearned guards the inbound identity filter: a
// zero-valued gob envelope (From == "") or a flooding list carrying empty
// strings must not plant "" in the membership view, where it would waste a
// fanout slot forever and be re-gossiped cluster-wide via pull responses.
func TestEmptyAddressNotLearned(t *testing.T) {
	hub := NewHub()
	tr, err := hub.Attach("solo")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Config{Fanout: 2, Acks: true, Seed: 80}, tr)
	if err != nil {
		t.Fatal(err)
	}
	src := store.NewSharded(1)
	w, err := store.NewWriter("writer", src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := w.Put("k", []byte("v"))
	r.handle(wire.Envelope{
		Kind: wire.KindPush, From: "", Update: wire.FromStore(u),
		RF: []string{"", "peer-ok"}, T: 0,
	})
	// The update itself is still accepted.
	if rev, ok := r.Get("k"); !ok || string(rev.Value) != "v" {
		t.Fatalf("push from empty sender dropped: %v %v", rev, ok)
	}
	// Only the valid address was learned.
	if got := r.Peers(); len(got) != 1 || got[0] != "peer-ok" {
		t.Fatalf("Peers = %v, want [peer-ok]", got)
	}
	// Same filter on pull-response membership samples.
	r.handle(wire.Envelope{
		Kind: wire.KindPullResp, From: "", KnownPeers: []string{"", "peer-2"},
	})
	if got := r.Peers(); len(got) != 2 {
		t.Fatalf("Peers = %v, want [peer-ok peer-2]", got)
	}
	for _, a := range r.Peers() {
		if a == "" {
			t.Fatal("empty address learned")
		}
	}
}

func TestStopIsIdempotent(t *testing.T) {
	hub := NewHub()
	tr, err := hub.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Config{Fanout: 1, PullInterval: time.Millisecond, PullAttempts: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	r.Stop() // must not panic or deadlock
}

// TestReplicaSnapshotRestore restarts a replica from its WAL checkpoint
// alone: after CheckpointWAL prunes the records the snapshot covers, a
// fresh replica on the same address recovers the tombstone and the live
// value, and its writer continues the sequence instead of reusing numbers.
func TestReplicaSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	hub := NewHub()
	open := func(l *wal.Log, seed int64) (*Replica, Transport) {
		t.Helper()
		tr, err := hub.Attach("snap-src")
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(Config{Fanout: 0, Seed: seed, WAL: l}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return r, tr
	}
	l1 := openWAL(t, dir, wal.Options{})
	r1, tr1 := open(l1, 50)
	r1.Publish("a", []byte("1"))
	r1.Publish("b", []byte("2"))
	r1.Delete("a")
	if _, err := r1.CheckpointWAL(); err != nil {
		t.Fatalf("CheckpointWAL: %v", err)
	}
	r1.Stop()
	tr1.Close()
	l1.Close()

	l2 := openWAL(t, dir, wal.Options{})
	defer l2.Close()
	r2, _ := open(l2, 51)
	rec, err := r2.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if rec.Replayed != 3 || rec.Frontiers != 1 {
		t.Fatalf("recovery = %+v, want the checkpoint's 3 updates and its frontier", rec)
	}
	if _, ok := r2.Get("a"); ok {
		t.Fatal("tombstone lost in restore")
	}
	rev, ok := r2.Get("b")
	if !ok || string(rev.Value) != "2" {
		t.Fatalf("restored value = %v %v", rev, ok)
	}
	u, _ := r2.Publish("c", []byte("3"))
	if u.Origin != "snap-src" || u.Seq != 4 {
		t.Fatalf("post-restore update = %s", u.ID())
	}
}

// TestReplicaRestoreGarbage: a checkpoint that is not a WAL segment image —
// junk, or the gob store snapshot checkpoints were written as before they
// became WAL records — fails recovery, naming the file and applying nothing,
// instead of starting from the log alone, whose covered segments were pruned.
func TestReplicaRestoreGarbage(t *testing.T) {
	var gobImage bytes.Buffer
	old := store.NewSharded(1)
	old.Apply(store.Update{Origin: "o", Seq: 1, Key: "k", Value: []byte("v"), Stamp: time.Unix(1, 0)})
	if err := old.WriteSnapshot(&gobImage); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{"junk": []byte("junk"), "gob": gobImage.Bytes()} {
		dir := t.TempDir()
		path := filepath.Join(dir, "checkpoint.snap")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		l := openWAL(t, dir, wal.Options{})
		defer l.Close()
		tr, err := NewHub().Attach("snap-bad")
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(Config{Fanout: 0, Seed: 52, WAL: l}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RecoverWAL(); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s checkpoint: RecoverWAL error %v, want one naming %s", name, err, path)
		}
		if n := r.st.UpdateCount(); n != 0 {
			t.Fatalf("%s checkpoint: %d updates applied", name, n)
		}
	}
}

func TestPullBootstrapsMembership(t *testing.T) {
	// A new replica knowing only one seed address learns the rest of the
	// population from the membership sample on pull responses.
	cfg := Config{
		Fanout:       3,
		PartialList:  true,
		PullAttempts: 2,
		PullInterval: 10 * time.Millisecond,
	}
	_, replicas := newCluster(t, 6, cfg)

	// Attach the newcomer to the same hub as the cluster.
	clusterHub := replicasHub(t, replicas)
	tr, err := clusterHub.Attach("newcomer")
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Seed = 77
	newcomer, err := NewReplica(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	newcomer.AddPeers("replica-0") // one seed only
	newcomer.Start()
	t.Cleanup(newcomer.Stop)

	eventually(t, 2*time.Second, func() bool {
		return len(newcomer.Peers()) >= 4
	}, "newcomer did not learn peers from pull responses")
}

// replicasHub digs the shared hub out of a cluster built by newCluster.
func replicasHub(t *testing.T, replicas []*Replica) *Hub {
	t.Helper()
	mt, ok := replicas[0].transport.(*MemTransport)
	if !ok {
		t.Fatal("cluster not on MemTransport")
	}
	return mt.hub
}
