package live

import (
	"testing"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wire"
)

// countingPF is PF(t) = 1 counting its evaluations: the engine evaluates PF
// exactly once per forwarding decision, at an update's first receipt.
type countingPF struct{ calls *int }

func (c countingPF) P(int) float64  { *c.calls++; return 1 }
func (c countingPF) String() string { return "counting" }

// TestRacingTwinPushesApplyOnce replays, deterministically, two copies of one
// new push arriving on two connections: copy A's store apply wins, copy B
// finds the update Seen and so enters as a store duplicate — and B reaches
// the engine first. The update must still surface exactly once as applied,
// with one forwarding decision, and B as one duplicate.
func TestRacingTwinPushesApplyOnce(t *testing.T) {
	tr, err := NewHub().Attach("twin")
	if err != nil {
		t.Fatal(err)
	}
	decisions, applied, dups := 0, 0, 0
	metrics := &recordingMetrics{}
	r, err := NewReplica(Config{
		Fanout:  2,
		NewPF:   func() pf.Func { return countingPF{&decisions} },
		Metrics: metrics,
		Seed:    1,
		Hooks: Hooks{OnApply: func(_ store.Update, res store.ApplyResult, src Source, _ int) {
			switch {
			case res == store.Applied && src == SourcePush:
				applied++
			case res == store.Duplicate:
				dups++
			}
		}},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.AddPeers("a", "b", "c")
	u, _ := testWriter(t, "origin").PutObserved("k", []byte("v"))

	pre := make([]engine.Applied, 1)
	r.applyPushes([]store.Update{u}, pre)
	preA := pre[0]
	if preA.Res != store.Applied {
		t.Fatalf("copy A's apply = %v, want applied", preA.Res)
	}
	r.ingestPushes([]wire.Envelope{{Kind: wire.KindPush, From: "b", Update: wire.FromStore(u)}})
	r.run(func(e *engine.Engine[string]) {
		e.HandlePushApplied("a", engine.Message[string]{Kind: engine.KindPush, Update: u}, preA)
	})

	if applied != 1 || dups != 1 {
		t.Fatalf("apply events: %d applied, %d duplicate; want 1 and 1", applied, dups)
	}
	if decisions != 1 {
		t.Fatalf("forwarding decisions = %d, want 1", decisions)
	}
	got := metrics.observed()
	if got[MetricApplied] != 1 || got[MetricPushDuplicate] != 1 {
		t.Fatalf("counters %s = %v, %s = %v; want 1 and 1", MetricApplied, got[MetricApplied],
			MetricPushDuplicate, got[MetricPushDuplicate])
	}
}
