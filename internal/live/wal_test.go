package live

import (
	"fmt"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wal"
)

// walConfig is the base protocol config the WAL tests run replicas with.
func walConfig() Config {
	return Config{
		Fanout:       2,
		NewPF:        func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList:  true,
		PullAttempts: 2,
		PullInterval: 5 * time.Millisecond,
	}
}

// openWAL opens a log in dir with the never policy (a kill -9 in-process is
// an abandoned handle, not lost page cache) and fails the test on error.
func openWAL(t *testing.T, dir string, opts wal.Options) *wal.Log {
	t.Helper()
	opts.Dir = dir
	if opts.Policy == 0 {
		opts.Policy = wal.SyncNever
	}
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	return l
}

// TestWALReplicaRecoversAfterKill is the live-level crash drill: a replica
// logging to a WAL applies local publishes, a delete, and remotely ingested
// updates, is killed without any snapshot, and a fresh replica recovering
// from the WAL directory alone converges to the exact pre-kill store.
func TestWALReplicaRecoversAfterKill(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{})

	hub := NewHub()
	addrs := []string{"wal-0", "plain-1"}
	tr0, err := hub.Attach(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := hub.Attach(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	c0 := walConfig()
	c0.Seed = 1
	c0.WAL = l
	r0, err := NewReplica(c0, tr0)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	c1 := walConfig()
	c1.Seed = 2
	r1, err := NewReplica(c1, tr1)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	r0.AddPeers(addrs...)
	r1.AddPeers(addrs...)
	r0.Start()
	r1.Start()
	defer r1.Stop()

	for i := 0; i < 3; i++ {
		if _, err := r0.Publish(fmt.Sprintf("local-%d", i), []byte("v")); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	del, err := r0.Delete("local-0")
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	remote, _ := r1.Publish("remote", []byte("r"))
	eventually(t, 2*time.Second, func() bool {
		return r0.HasUpdate(remote.ID()) && r1.HasUpdate(del.ID())
	}, "replicas never converged before the kill")
	want := r0.Store().UpdateCount()

	// kill -9: no snapshot, no graceful close — the WAL directory is all
	// that survives.
	r0.Stop()
	if err := tr0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openWAL(t, dir, wal.Options{})
	defer l2.Close()
	tr2, err := hub.Attach(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	c2 := walConfig()
	c2.Seed = 3
	c2.WAL = l2
	r2, err := NewReplica(c2, tr2)
	if err != nil {
		t.Fatalf("restart replica: %v", err)
	}
	rec, err := r2.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if rec.Replayed != want {
		t.Fatalf("recovery restored %d updates (%+v), want %d", rec.Replayed, rec, want)
	}
	if !r2.Store().Equal(r1.Store()) {
		t.Fatal("recovered store diverges from the surviving replica")
	}
	if _, ok := r2.Get("local-0"); ok {
		t.Fatal("tombstoned key resurrected by recovery")
	}

	// The writer resynced past the replayed log: new publishes must not
	// collide with pre-kill sequence numbers.
	post, err := r2.Publish("post", []byte("p"))
	if err != nil {
		t.Fatalf("post-recovery publish: %v", err)
	}
	r2.AddPeers(addrs...)
	r2.Start()
	defer r2.Stop()
	eventually(t, 2*time.Second, func() bool {
		return r1.HasUpdate(post.ID())
	}, "post-recovery publish never propagated")
}

// TestWALDuplicateReplayAbsorbed simulates the crash window between apply
// and append ack: the same update is logged twice, and recovery applies it
// once, counting the second copy as a duplicate instead of failing.
func TestWALDuplicateReplayAbsorbed(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{})

	hub := NewHub()
	tr, err := hub.Attach("dup-0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig()
	cfg.Seed = 1
	cfg.WAL = l
	r, err := NewReplica(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	u, err := r.Publish("k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(u); err != nil { // the double-logged record
		t.Fatal(err)
	}
	r.Stop()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openWAL(t, dir, wal.Options{})
	defer l2.Close()
	tr2, err := hub.Attach("dup-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := walConfig()
	cfg2.Seed = 2
	cfg2.WAL = l2
	r2, err := NewReplica(cfg2, tr2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r2.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if rec.Replayed != 1 || rec.Duplicates != 1 {
		t.Fatalf("recovery = %+v, want 1 replayed + 1 duplicate", rec)
	}
	if rev, ok := r2.Get("k"); !ok || string(rev.Value) != "v" {
		t.Fatalf("recovered value = %v %v", rev, ok)
	}
}

// TestWALJanitorCheckpointBoundsLogAndRecovers drives the janitor's
// checkpoint path: once the log outgrows the configured threshold a
// maintenance pass snapshots and prunes it, and recovery from the
// checkpointed directory still reproduces the full store.
func TestWALJanitorCheckpointBoundsLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{SegmentBytes: 512})

	hub := NewHub()
	tr, err := hub.Attach("ckpt-0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig()
	cfg.Seed = 1
	cfg.WAL = l
	cfg.WALCheckpointBytes = 1 // every janitor pass checkpoints
	r, err := NewReplica(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 64
	for i := 0; i < writes; i++ {
		if _, err := r.Publish(fmt.Sprintf("k-%03d", i), []byte("vvvvvvvvvvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	grown := l.Size()
	r.RunJanitor()
	if l.Segments() != 0 {
		t.Fatalf("checkpoint left %d resident segments, want 0", l.Segments())
	}
	if l.Size() >= grown {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", grown, l.Size())
	}
	r.Stop()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openWAL(t, dir, wal.Options{SegmentBytes: 512})
	defer l2.Close()
	tr2, err := hub.Attach("ckpt-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := walConfig()
	cfg2.Seed = 2
	cfg2.WAL = l2
	r2, err := NewReplica(cfg2, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Segments() != 0 {
		t.Fatalf("%d segments survived the checkpoint, want recovery from the checkpoint alone", l2.Segments())
	}
	rec, err := r2.RecoverWAL()
	if err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	if rec.Replayed != writes {
		t.Fatalf("recovery restored %d (%+v), want %d", rec.Replayed, rec, writes)
	}
	for i := 0; i < writes; i++ {
		if _, ok := r2.Get(fmt.Sprintf("k-%03d", i)); !ok {
			t.Fatalf("key k-%03d missing after checkpointed recovery", i)
		}
	}
}

// TestSnapshotCatchUpLogsFrontier: a WAL-backed replica that catches up by
// snapshot stream over a Hub logs the adopted frontier exactly once, after
// the stream's update records, and a fresh replica recovering that log
// restores the adopted clock — holes the cut skipped included.
func TestSnapshotCatchUpLogsFrontier(t *testing.T) {
	hub := NewHub()
	attach := func(addr string, cfg Config) *Replica {
		tr, err := hub.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		return r
	}
	a := attach("a", Config{Fanout: 0, SnapshotCatchUp: 1, Seed: 1})
	// Every key overwritten: the cut (a/2, a/4, a/6) is smaller than the
	// delta, and only the frontier covers a/1, a/3 and a/5.
	for _, k := range []string{"x", "x", "y", "y", "z", "z"} {
		if _, err := a.Publish(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	want := a.Store().Clock()

	dir := t.TempDir()
	l := openWAL(t, dir, wal.Options{})
	rec := &recordingMetrics{}
	b := attach("b", Config{Fanout: 0, PullAttempts: 1, Seed: 2, Metrics: rec, WAL: l})
	b.AddPeers("a")
	b.PullNow()
	eventually(t, 10*time.Second, func() bool {
		return caughtUp(a, b) && rec.observed()[MetricSnapshotCatchups] == 1
	}, "b did not catch up by snapshot")
	b.Stop()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openWAL(t, dir, wal.Options{})
	t.Cleanup(func() { l2.Close() })
	var kinds []wal.RecordKind
	if _, err := l2.Replay(func(r wal.Record) error {
		kinds = append(kinds, r.Kind)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(kinds); n != 4 || kinds[n-1] != wal.RecordFrontier {
		t.Fatalf("logged %v; want the cut's 3 updates, then one frontier", kinds)
	}
	for _, k := range kinds[:3] {
		if k != wal.RecordUpdate {
			t.Fatalf("logged %v; want the cut's 3 updates, then one frontier", kinds)
		}
	}

	c := attach("c", Config{Fanout: 0, Seed: 3, WAL: l2})
	got, err := c.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	if got.Frontiers != 1 || got.Replayed != 3 {
		t.Fatalf("recovered %+v; want 3 updates and 1 frontier", got)
	}
	if c.Store().Clock().Compare(want) != version.Equal {
		t.Fatalf("recovered clock %v, want the adopted %v", c.Store().Clock(), want)
	}
}

// TestWALJanitorCheckpointsManySegments: every restart that writes starts a
// segment, so a replica restarted often with a write or two in between piles
// up files far below the byte threshold. One janitor pass past
// walCheckpointSegments checkpoints them all away.
func TestWALJanitorCheckpointsManySegments(t *testing.T) {
	dir := t.TempDir()
	w, err := store.NewWriter("restarts", store.NewSharded(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const restarts = 70
	for i := 0; i < restarts; i++ {
		l := openWAL(t, dir, wal.Options{})
		if err := l.Append(w.Put(fmt.Sprintf("k-%02d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l := openWAL(t, dir, wal.Options{})
	defer l.Close()
	if l.Segments() != restarts {
		t.Fatalf("%d segments after %d restarts that wrote, want %d", l.Segments(), restarts, restarts)
	}
	tr, err := NewHub().Attach("restarts-0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig()
	cfg.WAL = l
	r, err := NewReplica(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if got, err := r.RecoverWAL(); err != nil || got.Replayed != restarts {
		t.Fatalf("RecoverWAL = %+v, %v; want %d replayed", got, err, restarts)
	}
	r.RunJanitor()
	if got := l.Segments(); got != 0 {
		t.Fatalf("%d segments after one janitor pass, want 0", got)
	}
}
