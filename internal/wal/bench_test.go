package wal

import (
	"fmt"
	"testing"
	"time"
)

// benchLog opens a log in a fresh temp dir for b.
func benchLog(b *testing.B, policy SyncPolicy) *Log {
	b.Helper()
	l, err := Open(Options{Dir: b.TempDir(), Policy: policy, Interval: time.Millisecond})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

// BenchmarkWALAppend measures the per-record append cost under each fsync
// policy — the price a replica pays on every acknowledged apply. The
// always/never gap is the measured cost of synchronous durability the
// OPERATIONS guide quotes.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			l := benchLog(b, policy)
			u := testUpdate(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(u); err != nil {
					b.Fatalf("Append: %v", err)
				}
			}
		})
	}
}

// BenchmarkWALAppendParallel measures group commit under contention: many
// goroutines appending with fsync=always should amortize fsyncs across
// batches rather than paying one disk flush each.
func BenchmarkWALAppendParallel(b *testing.B) {
	l := benchLog(b, SyncAlways)
	u := testUpdate(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(u); err != nil {
				b.Fatalf("Append: %v", err)
			}
		}
	})
}

// BenchmarkRecovery measures cold-start recovery: open a log holding n
// records and replay every one. The reported recovery-ms/op metric is the
// daemon's crash-restart budget at that log size.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(Options{Dir: dir, Policy: SyncNever})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			for i := 0; i < n; i++ {
				if err := l.Append(testUpdate(i)); err != nil {
					b.Fatalf("Append: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatalf("Close: %v", err)
			}
			// One untimed recovery warms the page cache and the allocator
			// so the timed iterations measure steady-state replay.
			warm, err := Open(Options{Dir: dir, Policy: SyncNever})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			if _, err := warm.Replay(func(Record) error { return nil }); err != nil {
				b.Fatalf("Replay: %v", err)
			}
			if err := warm.Close(); err != nil {
				b.Fatalf("Close: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				rl, err := Open(Options{Dir: dir, Policy: SyncNever})
				if err != nil {
					b.Fatalf("Open: %v", err)
				}
				got := 0
				if _, err := rl.Replay(func(Record) error { got++; return nil }); err != nil {
					b.Fatalf("Replay: %v", err)
				}
				if got != n {
					b.Fatalf("replayed %d records, want %d", got, n)
				}
				elapsed += time.Since(start)
				// Close fsyncs; keep its (noisy, unrelated) latency out of
				// the recovery measurement.
				b.StopTimer()
				if err := rl.Close(); err != nil {
					b.Fatalf("Close: %v", err)
				}
				b.StartTimer()
			}
			b.ReportMetric(elapsed.Seconds()*1e3/float64(b.N), "recovery-ms/op")
			b.ReportMetric(float64(n)*float64(b.N)/elapsed.Seconds(), "records/s")
		})
	}
}
