// Package metrics provides counters and simple table rendering used by the
// simulation engine and the experiment harness.
//
// The package is deliberately dependency-free and allocation-conscious: the
// simulator updates counters on every message, so the hot path is a map
// lookup and an integer add. All accessors return copies so that callers can
// never alias internal state.
package metrics

import (
	"fmt"
	"strings"
	"sync"
)

// Registry collects named counters.
//
// A Registry is safe for concurrent use. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]float64)}
}

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of the named counter (zero if absent).
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of all counters.
func (r *Registry) Counters() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Table renders labelled rows of numeric cells as a fixed-width text table.
// It is used by cmd/figures to print the paper's tables and figure series.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells, formatting each value with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case float32:
			row[i] = trimFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
