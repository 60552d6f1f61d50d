package pfparse

import (
	"math"
	"testing"

	"github.com/p2pgossip/update/internal/pf"
)

func TestParseValid(t *testing.T) {
	tests := []struct {
		spec string
		at   int
		want float64
	}{
		{"const:0.8", 5, 0.8},
		{"lin:1,0.1", 3, 0.7},
		{"geom:0.9", 2, 0.81},
		{"affine:0.8,0.7,0.2", 0, 1},
		{"ttl:3", 3, 0},
		{"ttl:3", 2, 1},
		{"haas:0.8,2", 1, 1},
		{"haas:0.8,2", 2, 0.8},
		{"adaptive:1", 9, 1},
		{"geom: 0.5", 1, 0.5}, // whitespace tolerated
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			f, err := Parse(tt.spec)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if got := f.P(tt.at); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("P(%d) = %g, want %g", tt.at, got, tt.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "wat:1", "const", "const:a", "const:1,2", "lin:1",
		"geom:", "haas:0.8", "affine:1,2",
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) should error", spec)
		}
	}
}

func TestParseReturnsFreshAdaptive(t *testing.T) {
	f, err := Parse("adaptive:0.9")
	if err != nil {
		t.Fatal(err)
	}
	a, ok := f.(*pf.Adaptive)
	if !ok {
		t.Fatalf("adaptive spec returned %T", f)
	}
	if a.Base != 0.9 {
		t.Fatalf("Base = %g", a.Base)
	}
}

// TestFactoryFreshAdaptivePerUpdate: adaptive keeps per-update evidence, so
// every constructor call builds a new instance; stateless schedules share
// the one parsed value.
func TestFactoryFreshAdaptivePerUpdate(t *testing.T) {
	newPF, err := Factory("adaptive:0.8")
	if err != nil {
		t.Fatal(err)
	}
	a, b := newPF().(*pf.Adaptive), newPF().(*pf.Adaptive)
	if a == b || a.Base != 0.8 || b.Base != 0.8 {
		t.Fatalf("adaptive factory returned %p (base %g) and %p (base %g)", a, a.Base, b, b.Base)
	}
	a.ObserveDuplicate()
	if b.Duplicates() != 0 {
		t.Fatal("evidence leaked between updates")
	}
	geom, err := Factory("geom:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := geom().P(2); got != 0.25 {
		t.Fatalf("geom:0.5 P(2) = %g", got)
	}
	if _, err := Factory("geom:"); err == nil {
		t.Fatal("bad spec accepted")
	}
}
