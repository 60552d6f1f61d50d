package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/serve"
)

// burstWriter hammers one member with sequential PUTs from a goroutine
// until a write fails (the member died mid-burst). Every ref it returns was
// acknowledged over HTTP — and with a WAL configured, an acknowledgement
// means the update is on disk before the response was sent.
type burstWriter struct {
	mu    sync.Mutex
	acked []serve.PutResult
	want  map[string]string
	done  chan struct{}
}

func startBurst(cl *Client, prefix string) *burstWriter {
	b := &burstWriter{want: make(map[string]string), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		for i := 0; ; i++ {
			key := fmt.Sprintf("%s/k%05d", prefix, i)
			val := fmt.Sprintf("v%d", i)
			ref, err := cl.Put(key, []byte(val))
			if err != nil {
				return // the kill landed; everything acked so far is recorded
			}
			b.mu.Lock()
			b.acked = append(b.acked, ref)
			b.want[key] = val
			b.mu.Unlock()
		}
	}()
	return b
}

// wait blocks until the burst goroutine has observed the kill and returns
// the acknowledged refs.
func (b *burstWriter) wait(t *testing.T) []serve.PutResult {
	t.Helper()
	select {
	case <-b.done:
	case <-time.After(10 * time.Second):
		t.Fatal("burst writer never observed the kill")
	}
	return b.acked
}

// tornTail appends garbage to the newest WAL segment in dir, simulating a
// write torn by the crash. Recovery must drop exactly the garbage and keep
// every complete record.
func tornTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		// The kill landed after a checkpoint pruned every segment and before
		// the next write created one: tear that write, the first record of a
		// fresh segment, whose header is the one the checkpoint starts with.
		ckpt, err := os.ReadFile(filepath.Join(dir, "checkpoint.snap"))
		if err != nil || len(ckpt) < 8 {
			t.Fatalf("no WAL segment and no checkpoint header in %s (err=%v)", dir, err)
		}
		segs = []string{filepath.Join(dir, "wal-00000001.seg")}
		if err := os.WriteFile(segs[0], ckpt[:8], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(segs)
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 137)
	for i := range garbage {
		garbage[i] = byte(i*31 + 7)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSoakDurable is the durability chaos soak: every member runs
// with a write-ahead log that its janitor checkpoints on every pass, a
// victim is SIGKILLed while a write burst is in flight against it, its WAL
// tail is deliberately torn, and it must come back from disk alone — its
// checkpoint's records, then the surviving segments' — holding every write
// it ever acknowledged. Traffic keeps flowing through the survivors throughout,
// and the run ends with full convergence plus the exactly-once invariants.
func TestClusterSoakDurable(t *testing.T) {
	procs, killCycles, keysPerPhase := 4, 2, 30
	if testing.Short() {
		procs, killCycles, keysPerPhase = 3, 1, 12
	}
	tmp := t.TempDir()
	base := ProcConfig{
		Seed:         11,
		PullInterval: 100 * time.Millisecond,
		Fanout:       3,
		PF:           1,
		Acks:         true,
		WALDir:       filepath.Join(tmp, "wal"),
		Fsync:        "interval",
		// Every janitor pass that finds the log non-empty checkpoints it.
		WALCheckpoint:   1,
		JanitorInterval: 50 * time.Millisecond,
	}
	c, err := Launch(daemonBin, procs, base, testLogWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	tr := newSoakTraffic(t)

	// Phase 1: baseline traffic through every member.
	tr.write(c.Clients, keysPerPhase)

	// Phase 2: kill -9 mid-burst, tear the WAL tail, recover from disk.
	var acked []serve.PutResult
	for cycle := 0; cycle < killCycles; cycle++ {
		victim := 1 + cycle%(procs-1)
		survivors := make([]*Client, 0, procs-1)
		for i, cl := range c.Clients {
			if i != victim {
				survivors = append(survivors, cl)
			}
		}

		burst := startBurst(c.Clients[victim], fmt.Sprintf("burst%d", cycle))
		time.Sleep(150 * time.Millisecond) // let writes pile into the WAL
		if err := c.Procs[victim].Kill(); err != nil {
			t.Fatalf("kill cycle %d: %v", cycle, err)
		}
		cycleAcked := burst.wait(t)
		if len(cycleAcked) == 0 {
			t.Fatalf("kill cycle %d: burst acked nothing before the kill", cycle)
		}
		acked = append(acked, cycleAcked...)
		burst.mu.Lock()
		for k, v := range burst.want {
			tr.want[k] = v
		}
		burst.mu.Unlock()
		victimWAL := fmt.Sprintf("%s.%d", base.WALDir, victim)
		if _, err := os.Stat(filepath.Join(victimWAL, "checkpoint.snap")); err != nil {
			t.Fatalf("kill cycle %d: the victim's WAL holds no checkpoint: %v", cycle, err)
		}
		tornTail(t, victimWAL)

		// Survivors take writes while the victim is down.
		tr.write(survivors, keysPerPhase)

		if err := c.KillAndRecover(victim); err != nil {
			t.Fatalf("kill cycle %d: %v", cycle, err)
		}
		st, err := c.Clients[victim].State()
		if err != nil {
			t.Fatalf("kill cycle %d: state after recovery: %v", cycle, err)
		}
		if st.Restored == 0 {
			t.Fatalf("kill cycle %d: recovered member restored nothing", cycle)
		}
		// The acid test: before any gossip could help it, the recovered
		// member's clock must already cover every write it acknowledged.
		if err := CheckDelivery([]State{st}, cycleAcked); err != nil {
			t.Fatalf("kill cycle %d: acked write lost across kill -9: %v", cycle, err)
		}
		t.Logf("cycle %d: victim %d recovered %d updates from disk (%d acked mid-burst)",
			cycle, victim, st.Restored, len(cycleAcked))
	}
	tr.refs = append(tr.refs, acked...)

	// Rewire the peer view (restarts may have shuffled who knows whom) and
	// run a final wave through everyone.
	all := c.GossipAddrs()
	for i, cl := range c.Clients {
		if _, err := cl.AddPeers(all); err != nil {
			t.Fatalf("rewire member %d: %v", i, err)
		}
	}
	tr.write(c.Clients, keysPerPhase)

	states, err := c.WaitConverged(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAll(states, tr.refs); err != nil {
		t.Fatal(err)
	}
	for key, want := range tr.want {
		for i, cl := range c.Clients {
			got, ok, err := cl.Get(key)
			if err != nil {
				t.Fatalf("member %d get %s: %v", i, key, err)
			}
			if !ok || string(got) != want {
				t.Fatalf("member %d: %s = %q (ok=%v), want %q", i, key, got, ok, want)
			}
		}
	}
	t.Logf("durable soak: %d members, %d kill cycles, %d acked mid-burst, %d updates, digest %.12s…",
		len(c.Clients), killCycles, len(acked), states[0].UpdateCount, states[0].Digest)
}
