package store

// Benchmarks for the store hot paths: log apply (push ingest) and the
// anti-entropy diff that serves every pull request.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

func benchStore(b *testing.B, origins, perOrigin int) *Sharded {
	b.Helper()
	s := NewSharded(0)
	stamp := time.Unix(1_700_000_000, 0)
	vid := version.NewID(stamp, "w", rand.New(rand.NewSource(1)))
	for o := 0; o < origins; o++ {
		origin := fmt.Sprintf("origin-%02d", o)
		for i := 0; i < perOrigin; i++ {
			s.Apply(Update{
				Origin:  origin,
				Seq:     uint64(i + 1),
				Key:     fmt.Sprintf("key-%d-%d", o, i),
				Value:   []byte("value"),
				Version: version.History{vid},
				Stamp:   stamp,
			})
		}
	}
	return s
}

// BenchmarkMissingForTail is the steady-state pull: the requester is only a
// few updates behind on each of many origins.
func BenchmarkMissingForTail(b *testing.B) {
	const origins, perOrigin, behind = 16, 256, 4
	s := benchStore(b, origins, perOrigin)
	remote := version.NewClock()
	for o := 0; o < origins; o++ {
		remote[fmt.Sprintf("origin-%02d", o)] = perOrigin - behind
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.MissingFor(remote); len(got) != origins*behind {
			b.Fatalf("missing %d, want %d", len(got), origins*behind)
		}
	}
}

// BenchmarkMissingForCurrent is the no-op pull: the requester is already
// up to date and the response must be empty (and allocation-free).
func BenchmarkMissingForCurrent(b *testing.B) {
	const origins, perOrigin = 16, 256
	s := benchStore(b, origins, perOrigin)
	remote := s.Clock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.MissingFor(remote); got != nil {
			b.Fatalf("missing %d, want none", len(got))
		}
	}
}

// BenchmarkApplyFresh measures ingesting new updates on fresh keys — the
// first-receipt push path's store half.
func BenchmarkApplyFresh(b *testing.B) {
	s := NewSharded(0)
	stamp := time.Unix(1_700_000_000, 0)
	vid := version.NewID(stamp, "w", rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Apply(Update{
			Origin:  "writer",
			Seq:     uint64(i + 1),
			Key:     "key-" + fmt.Sprint(i),
			Value:   []byte("value"),
			Version: version.History{vid},
			Stamp:   stamp,
		})
		if res != Applied {
			b.Fatalf("apply = %v", res)
		}
	}
}

// countingWriter tallies bytes written; the snapshot catch-up benchmark uses
// it so encoding cost is measured without buffering the stream.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// catchUpHistory builds an overwrite-heavy history: `origins` × `perOrigin`
// updates over keys rewritten `depth` times each, with properly dominating
// version chains (prefix-sharing, so setup stays cheap). It returns the
// populated store and the update list in apply order.
func catchUpHistory(origins, perOrigin, depth int) (*Sharded, []Update) {
	s := NewSharded(0)
	stamp := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(1))
	updates := make([]Update, 0, origins*perOrigin)
	for o := 0; o < origins; o++ {
		origin := fmt.Sprintf("origin-%02d", o)
		seq := uint64(0)
		for k := 0; k < perOrigin/depth; k++ {
			chain := make(version.History, depth)
			for d := range chain {
				chain[d] = version.NewID(stamp, origin, rng)
			}
			for d := 0; d < depth; d++ {
				seq++
				u := Update{
					Origin:  origin,
					Seq:     seq,
					Key:     fmt.Sprintf("key-%d-%d", o, k),
					Value:   []byte("value"),
					Version: chain[:d+1],
					Stamp:   stamp,
				}
				s.Apply(u)
				updates = append(updates, u)
			}
		}
	}
	return s, updates
}

// BenchmarkCatchUp measures serving a rejoiner that is 100k updates behind
// (empty clock), on a history where every key was overwritten ten times.
// The delta path ships the full history; the snapshot path, after frontier
// compaction, encodes only the resident live-state-backing entries. The
// updates/s metric is the history the rejoiner is caught up on per second
// of serving time — the figure the PR-8 retention work moves.
func BenchmarkCatchUp(b *testing.B) {
	const origins, perOrigin, depth = 10, 10_000, 10
	const history = origins * perOrigin

	b.Run("delta", func(b *testing.B) {
		s, _ := catchUpHistory(origins, perOrigin, depth)
		empty := version.NewClock()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, ok := s.DeltaFor(empty)
			if !ok || len(got) != history {
				b.Fatalf("delta %d complete=%v, want %d", len(got), ok, history)
			}
		}
		b.ReportMetric(float64(history)*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		b.ReportMetric(float64(history), "shipped/op")
	})

	b.Run("snapshot", func(b *testing.B) {
		s, _ := catchUpHistory(origins, perOrigin, depth)
		if dropped := s.CompactLog(s.Clock()); dropped != history-history/depth {
			b.Fatalf("compacted %d entries, want %d", dropped, history-history/depth)
		}
		if _, ok := s.DeltaFor(version.NewClock()); ok {
			b.Fatal("rejoiner gap survived compaction; snapshot path not exercised")
		}
		b.ReportAllocs()
		b.ResetTimer()
		var bytes int64
		for i := 0; i < b.N; i++ {
			w := &countingWriter{}
			if err := s.WriteSnapshot(w); err != nil {
				b.Fatal(err)
			}
			bytes = w.n
		}
		b.ReportMetric(float64(history)*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		b.ReportMetric(float64(history/depth), "shipped/op")
		b.ReportMetric(float64(bytes), "snapbytes/op")
	})
}

// BenchmarkApplyDuplicate measures re-ingesting a known update — the
// duplicate-push path's store half, pure log lookup.
func BenchmarkApplyDuplicate(b *testing.B) {
	s := benchStore(b, 1, 512)
	u := Update{
		Origin: "origin-00", Seq: 256, Key: "key-0-255", Value: []byte("value"),
		Version: version.History{version.NewID(time.Unix(1_700_000_000, 0), "w",
			rand.New(rand.NewSource(1)))},
		Stamp: time.Unix(1_700_000_000, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.Apply(u); res != Duplicate {
			b.Fatalf("apply = %v", res)
		}
	}
}
