package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %g", got)
	}
	r.Inc("a")
	r.Add("a", 2.5)
	if got := r.Counter("a"); got != 3.5 {
		t.Fatalf("a = %g", got)
	}
	all := r.Counters()
	if all["a"] != 3.5 || len(all) != 1 {
		t.Fatalf("Counters = %v", all)
	}
	// Returned map is a copy.
	all["a"] = 99
	if r.Counter("a") != 3.5 {
		t.Fatal("Counters exposed internal map")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Inc("c")
				r.Add("d", 0.5)
				_ = r.Counter("c")
				_ = r.Counters()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c"); got != 8000 {
		t.Fatalf("concurrent counter = %g", got)
	}
	if got := r.Counter("d"); got != 4000 {
		t.Fatalf("concurrent Add = %g", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", float32(2))
	tb.AddRow("gamma-long-name", 0.3333333)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "0.3333") {
		t.Fatalf("CSV cell formatting wrong:\n%s", csv)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"}, {2, "2"}, {0, "0"}, {0.25, "0.25"}, {-1.2, "-1.2"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Fatalf("trimFloat(%g) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
