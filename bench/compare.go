package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per (end-to-end metric, workload) with both
// files' medians, the ratio with its base, and a verdict against the metric's
// bound: better, same, worse — or unresolved when the run-to-run spread of
// either side exceeds the bound, in which case a difference of that size
// cannot be told from noise. Placeholders are left out. It returns 1 if any row
// is worse.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	fa, err := loadSaved(a)
	if err == nil {
		var fb savedFile
		if fb, err = loadSaved(b); err == nil {
			return compareSaved(fa, fb, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func loadSaved(path string) (savedFile, error) {
	var f savedFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// metricRuns collects one metric's values over a file's untraced, correct
// runs of one workload.
func metricRuns(f savedFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace && r.Correct {
			if x, ok := r.Metrics[metric]; ok {
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// verdict judges b against base a for one metric.
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	spread := quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	if spread > m.Bound {
		return "unresolved"
	}
	// change > 0 means b is worse than a, whatever the metric's direction.
	change := (mb - ma) / ma
	if m.Better == higher {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -spread && change < 0:
		return "better"
	default:
		return "same"
	}
}

func compareSaved(fa, fb savedFile, a, b string, w io.Writer) int {
	fmt.Fprintf(w, "base a = %s, b = %s; ratio = b/a\n", a, b)
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "ratio", "bound", "verdict")
	code := 0
	for _, ws := range workloadSpecs {
		for _, m := range endToEnd {
			if !m.measuredOn(ws.Name) {
				continue
			}
			xa, xb := metricRuns(fa, ws.Name, m.Name), metricRuns(fb, ws.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(m, xa, xb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %8.4f %6.2f  %s (n=%d,%d)\n",
				ws.Name, m.Name, median(xa), median(xb), ratio(median(xb), median(xa)), m.Bound, v, len(xa), len(xb))
		}
	}
	return code
}
