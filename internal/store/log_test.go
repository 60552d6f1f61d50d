package store

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestRecordGrowsGeometrically pins the log's growth policy: recording 65,536
// in-order updates of one origin — a WAL replay or a catch-up — allocates at
// most 2.5 times the final log's bytes. Left to append, which grows a large
// slice by about 1.25×, the same run allocates about 5.7 times.
func TestRecordGrowsGeometrically(t *testing.T) {
	const n = 1 << 16
	updates := make([]Update, n)
	for i := range updates {
		updates[i] = Update{Origin: "origin", Seq: uint64(i + 1), Key: "k"}
	}
	l := newOriginLog()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range updates {
		l.record(u)
	}
	runtime.ReadMemStats(&after)
	if got := l.clock.Get("origin"); got != n {
		t.Fatalf("clock = %d after %d in-order records", got, n)
	}
	final := float64(n * unsafe.Sizeof(Update{}))
	if ratio := float64(after.TotalAlloc-before.TotalAlloc) / final; ratio > 2.5 {
		t.Fatalf("recording %d updates allocated %.2f× the final log's %.0f bytes, want at most 2.5×", n, ratio, final)
	}
}
