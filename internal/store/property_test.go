package store

// Property tests pinning the indexed anti-entropy diff against the model's
// brute-force one, compaction and the live cut against an uncompacted
// store, and the Ref round-trip.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// TestMissingForMatchesNaiveReference builds random logs — random origin
// sets, random sequence subsets applied in random order, so the logs have
// gaps — and compares the binary-searched MissingFor against the model's
// linear scan for random remote clocks.
func TestMissingForMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stamp := time.Unix(1_700_000_000, 0)
	vid := version.NewID(stamp, "w", rng)
	for trial := 0; trial < 200; trial++ {
		s, m := NewSharded(4), newModel()
		originCount := rng.Intn(6) // sometimes zero: the empty-store case
		for o := 0; o < originCount; o++ {
			origin := fmt.Sprintf("origin-%d", rng.Intn(8))
			// A random subset of sequence numbers, applied shuffled, so the
			// log is Seq-sorted but gapped.
			maxSeq := rng.Intn(30) + 1
			seqs := rng.Perm(maxSeq)
			keep := rng.Intn(len(seqs) + 1)
			for _, seq := range seqs[:keep] {
				u := Update{
					Origin:  origin,
					Seq:     uint64(seq + 1),
					Key:     fmt.Sprintf("key-%d", rng.Intn(10)),
					Value:   []byte{byte(seq)},
					Version: version.History{vid},
					Stamp:   stamp,
				}
				s.Apply(u)
				m.apply(u)
			}
		}
		for probe := 0; probe < 5; probe++ {
			remote := version.NewClock()
			for o := 0; o < 8; o++ {
				if rng.Intn(2) == 0 {
					remote[fmt.Sprintf("origin-%d", o)] = uint64(rng.Intn(35))
				}
			}
			got := s.MissingFor(remote)
			want := m.missingFor(remote)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d updates, reference %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i].Ref() != want[i].Ref() {
					t.Fatalf("trial %d: position %d is %v, reference %v",
						trial, i, got[i].Ref(), want[i].Ref())
				}
			}
		}
	}
}

// TestDeltaForCompactionProperty pins the compaction contract on random
// workloads and random compaction points, at one and four shards: a
// compacted store asked for a delta either serves exactly what an
// uncompacted one would, or reports the gap as snapshot-only because an
// update the remote needs is genuinely no longer resident. It must never
// hand out a silent partial delta.
func TestDeltaForCompactionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		// Random workload with real causal histories: a few writers
		// overwriting (and sometimes deleting) a small key space through a
		// builder store, so domination and branch retention behave as in
		// production.
		builder := NewSharded(1)
		writers := make([]*Writer, rng.Intn(4)+1)
		for i := range writers {
			w, err := NewWriter(fmt.Sprintf("origin-%d", i), builder,
				func() time.Time { return time.Unix(1_700_000_000, 0) },
				rand.New(rand.NewSource(int64(trial*10+i))))
			if err != nil {
				t.Fatal(err)
			}
			writers[i] = w
		}
		var workload []Update
		for i, n := 0, rng.Intn(40); i < n; i++ {
			w := writers[rng.Intn(len(writers))]
			key := fmt.Sprintf("key-%d", rng.Intn(5))
			if rng.Intn(8) == 0 {
				workload = append(workload, w.Delete(key))
			} else {
				workload = append(workload, w.Put(key, []byte{byte(i)}))
			}
		}

		// Reference stays uncompacted; the subject (alternating shard
		// counts) receives the same updates in a shuffled order, then
		// compacts at a random frontier.
		reference := NewSharded(1)
		subject := NewSharded([]int{1, 4}[trial%2])
		for _, u := range workload {
			reference.Apply(u)
		}
		for _, i := range rng.Perm(len(workload)) {
			subject.Apply(workload[i])
		}
		frontier := version.NewClock()
		for _, w := range writers {
			if max := subject.Clock().Get(w.Origin()); max > 0 {
				frontier[w.Origin()] = uint64(rng.Intn(int(max) + 1))
			}
		}
		subject.CompactLog(frontier)

		resident := make(map[Ref]bool)
		for _, u := range subject.MissingFor(nil) {
			resident[u.Ref()] = true
		}
		for probe := 0; probe < 6; probe++ {
			remote := version.NewClock()
			for i := range writers {
				if rng.Intn(3) > 0 {
					remote[fmt.Sprintf("origin-%d", i)] = uint64(rng.Intn(20))
				}
			}
			want := reference.MissingFor(remote)
			got, ok := subject.DeltaFor(remote)
			if ok {
				if len(got) != len(want) {
					t.Fatalf("trial %d: complete delta has %d updates, reference %d",
						trial, len(got), len(want))
				}
				for i := range got {
					if got[i].Ref() != want[i].Ref() {
						t.Fatalf("trial %d: delta position %d is %v, reference %v",
							trial, i, got[i].Ref(), want[i].Ref())
					}
				}
				continue
			}
			// Snapshot-only must mean a needed update was really compacted
			// away — anything weaker would degrade deltas for no reason.
			gapReal := false
			for _, u := range want {
				if !resident[u.Ref()] {
					gapReal = true
					break
				}
			}
			if !gapReal {
				t.Fatalf("trial %d: DeltaFor reported a gap but every update the remote needs is still resident", trial)
			}
		}
	}
}

// refsOf lists update identities in order.
func refsOf(updates []Update) []Ref {
	refs := make([]Ref, len(updates))
	for i, u := range updates {
		refs[i] = u.Ref()
	}
	return refs
}

// TestLiveCutProperty pins the snapshot catch-up payload on random
// interleaved workloads — several writers in two groups that never see each
// other's writes (so keys grow concurrent branches), deletes, updates lost
// in flight (so clocks stop at holes), and a random earlier compaction — at
// one and four shards as source and as receiver:
//
//   - cut + frontier restored into an empty store reproduce the source's
//     clock, live state and branches;
//   - both shard counts cut the same entries in the same canonical order;
//   - quiescent and before any tombstone GC, the cut is exactly what
//     CompactLog(Clock()) leaves resident on the source (a source compacted
//     earlier may keep more: compaction does not revisit an origin whose
//     watermark cannot advance, the cut always does);
//   - a receiver that already holds part of the history ends in the same
//     state, and a second helping changes nothing.
func TestLiveCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	shardings := []func() Backend{
		func() Backend { return NewSharded(1) },
		func() Backend { return NewSharded(4) },
	}
	for trial := 0; trial < 150; trial++ {
		groups := []*Sharded{NewSharded(1), NewSharded(1)}
		writers := make([]*Writer, rng.Intn(4)+2)
		for i := range writers {
			w, err := NewWriter(fmt.Sprintf("origin-%d", i), groups[i%2],
				func() time.Time { return time.Unix(1_700_000_000, 0) },
				rand.New(rand.NewSource(int64(trial*10+i))))
			if err != nil {
				t.Fatal(err)
			}
			writers[i] = w
		}
		var workload []Update
		for i, n := 0, rng.Intn(60); i < n; i++ {
			w := writers[rng.Intn(len(writers))]
			key := fmt.Sprintf("key-%d", rng.Intn(6))
			if rng.Intn(8) == 0 {
				workload = append(workload, w.Delete(key))
			} else {
				workload = append(workload, w.Put(key, []byte{byte(i)}))
			}
		}
		// One update in ten never arrives.
		arrived := workload[:0:0]
		for _, u := range workload {
			if rng.Intn(10) > 0 {
				arrived = append(arrived, u)
			}
		}

		sources := []Backend{shardings[0](), shardings[1]()}
		order := rng.Perm(len(arrived))
		early := version.NewClock()
		for _, w := range writers {
			early[w.Origin()] = uint64(rng.Intn(8))
		}
		for _, src := range sources {
			half := len(order) / 2
			for _, i := range order[:half] {
				src.Apply(arrived[i])
			}
			if trial%3 == 0 {
				src.CompactLog(early)
			}
			for _, i := range order[half:] {
				src.Apply(arrived[i])
			}
		}

		cut, frontier := sources[0].LiveCut()
		shardedCut, shardedFrontier := sources[1].LiveCut()
		if fmt.Sprint(refsOf(cut)) != fmt.Sprint(refsOf(shardedCut)) ||
			frontier.Compare(shardedFrontier) != version.Equal {
			t.Fatalf("trial %d: shard counts cut differently:\n 1 shard  %v %v\n 4 shards %v %v",
				trial, refsOf(cut), frontier, refsOf(shardedCut), shardedFrontier)
		}

		src := sources[trial%2]
		if frontier.Compare(src.Clock()) != version.Equal {
			t.Fatalf("trial %d: frontier %v is not the source clock %v", trial, frontier, src.Clock())
		}
		same := func(what string, got Backend) {
			t.Helper()
			if c := got.Clock(); c.Compare(src.Clock()) != version.Equal {
				t.Fatalf("trial %d: %s: clock %v, source %v", trial, what, c, src.Clock())
			}
			if !got.Equal(src) {
				t.Fatalf("trial %d: %s: live state differs from the source", trial, what)
			}
			for k := 0; k < 6; k++ {
				key := fmt.Sprintf("key-%d", k)
				if g, w := got.Versions(key), src.Versions(key); len(g) != len(w) {
					t.Fatalf("trial %d: %s: %s has %d branches, source %d", trial, what, key, len(g), len(w))
				}
			}
		}
		for _, fresh := range shardings {
			dst := fresh()
			for _, u := range cut {
				dst.Apply(u)
			}
			dst.AdoptFrontier(frontier)
			same("restore into empty", dst)

			partial := fresh()
			for _, i := range order[:rng.Intn(len(order)+1)] {
				partial.Apply(arrived[i])
			}
			for round := 0; round < 2; round++ {
				for _, u := range cut {
					if res := partial.Apply(u); round == 1 && res != Duplicate {
						t.Fatalf("trial %d: second helping of %v was %v", trial, u.Ref(), res)
					}
				}
				partial.AdoptFrontier(frontier)
				same("restore over partial history", partial)
			}
		}

		src.CompactLog(src.Clock())
		retained := make(map[Ref]bool)
		for _, u := range src.MissingFor(nil) {
			retained[u.Ref()] = true
		}
		for _, u := range cut {
			if !retained[u.Ref()] {
				t.Fatalf("trial %d: cut ships %v, which CompactLog(Clock()) drops", trial, u.Ref())
			}
		}
		if trial%3 != 0 && len(cut) != len(retained) {
			t.Fatalf("trial %d: cut has %d entries, CompactLog(Clock()) retains %d:\n cut      %v\n retained %v",
				trial, len(cut), len(retained), refsOf(cut), refsOf(src.MissingFor(nil)))
		}
	}
}

func TestRefStringRoundTrip(t *testing.T) {
	for _, ref := range []Ref{
		{Origin: "peer-0", Seq: 1},
		{Origin: "127.0.0.1:9000", Seq: 18446744073709551615},
		{Origin: "with/slash", Seq: 7},
	} {
		back, err := ParseRef(ref.String())
		if err != nil {
			t.Fatalf("ParseRef(%q): %v", ref.String(), err)
		}
		if back != ref {
			t.Fatalf("round trip %q → %+v, want %+v", ref.String(), back, ref)
		}
	}
	u := Update{Origin: "peer-3", Seq: 12}
	if u.ID() != "peer-3/12" || u.Ref().String() != u.ID() {
		t.Fatalf("ID/Ref disagree: %q vs %q", u.ID(), u.Ref().String())
	}
	for _, bad := range []string{"", "no-seq", "origin/", "origin/notanumber", "origin/-1"} {
		if _, err := ParseRef(bad); err == nil {
			t.Fatalf("ParseRef(%q) accepted", bad)
		}
	}
}
