package engine

import (
	"testing"

	"github.com/p2pgossip/update/internal/store"
)

// TestRestartWipesVolatileState checks that Restart clears membership, ack
// and suspect bookkeeping, and per-update state, while keeping the store.
func TestRestartWipesVolatileState(t *testing.T) {
	e, ep := newTestEngine(t, 0, Config[int]{
		Fanout: 2, Acks: true, AckTimeout: 5, SuspectTTL: 10,
	}, nil)
	for id := 1; id <= 5; id++ {
		e.Learn(id)
	}
	u := publish(e, "k", []byte("v"))
	deliver(e, 2, Message[int]{Kind: KindAck, UpdateRef: u.Ref()})
	ep.now = 100
	e.Sweep() // unacked pushes become suspects
	if len(e.Suspects()) == 0 {
		t.Fatal("expected suspects before restart")
	}

	e.Restart([]int{1, 2})

	if got := e.KnownCount(); got != 2 {
		t.Fatalf("KnownCount = %d after restart, want 2 bootstrap peers", got)
	}
	if len(e.Suspects()) != 0 || len(e.AwaitingAck()) != 0 || len(e.Acked()) != 0 {
		t.Fatal("ack/suspect state survived restart")
	}
	if _, ok := e.Store().Get("k"); !ok {
		t.Fatal("durable store lost on restart")
	}
}

// TestRestartStoredUpdatesAreDuplicates checks that updates present in the
// (restored) store are duplicates after a restart although the engine tracks
// none of them — re-pushed copies must not trigger a second flood or a second
// apply.
func TestRestartStoredUpdatesAreDuplicates(t *testing.T) {
	dups := 0
	e, ep := newTestEngine(t, 0, Config[int]{
		Fanout: 2,
		Hooks:  Hooks[int]{OnDuplicate: func(store.Update, int) { dups++ }},
	}, nil)
	for id := 1; id <= 5; id++ {
		e.Learn(id)
	}
	u := publish(e, "k", []byte("v"))

	e.Restart([]int{1, 2, 3})

	ep.sent = nil
	applies := 0
	e.Store().SetApplyHook(func(_ store.Update, res store.ApplyResult, _ int) {
		if res == store.Applied {
			applies++
		}
	})
	deliver(e, 4, Message[int]{Kind: KindPush, Update: u, T: 1})
	if applies != 0 {
		t.Fatalf("re-pushed update applied %d times after restart", applies)
	}
	if len(ep.sent) != 0 {
		t.Fatalf("re-pushed known update forwarded %d messages", len(ep.sent))
	}
	if dups != 1 {
		t.Fatalf("OnDuplicate fired %d times, want 1", dups)
	}
}

// TestRestartKeepsWriterSequence checks the full adapter restart recipe:
// snapshot → wipe → restore → writer resync → Restart. New updates must not
// reuse sequence numbers.
func TestRestartKeepsWriterSequence(t *testing.T) {
	e, _ := newTestEngine(t, 0, Config[int]{Fanout: 1}, nil)
	e.Learn(1)
	publish(e, "a", []byte("1"))
	u2 := publish(e, "b", []byte("2"))
	if u2.Seq != 2 {
		t.Fatalf("pre-crash seq = %d", u2.Seq)
	}

	e.Restart([]int{1})
	u3 := publish(e, "c", []byte("3"))
	if u3.Seq != 3 {
		t.Fatalf("post-restart seq = %d, want 3 (no reuse)", u3.Seq)
	}
}
