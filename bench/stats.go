package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sample is one timed observation: when it happened (seconds into the
// measured window) and its value.
type sample struct {
	at, v float64
}

// slices is how many equal time slices a run's window is cut into for
// sliceMedian.
const slices = 8

// sliceMedian cuts the window [0, window) into `slices` equal time slices,
// takes the p-th percentile of the samples inside each slice, and returns the
// median of those per-slice figures. A co-tenant burst that inflates one
// slice therefore does not set the reported value. Slices holding fewer than
// minPerSlice samples are skipped; with no usable slice the whole sample's
// percentile is returned.
func sliceMedian(samples []sample, window, p float64, minPerSlice int) float64 {
	if len(samples) == 0 || window <= 0 {
		return 0
	}
	buckets := make([][]float64, slices)
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		all = append(all, s.v)
		i := int(s.at / window * slices)
		if i < 0 || i >= slices {
			continue
		}
		buckets[i] = append(buckets[i], s.v)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) >= minPerSlice {
			per = append(per, percentile(b, p))
		}
	}
	if len(per) == 0 {
		return percentile(all, p)
	}
	return median(per)
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median — the steadiness figure the bounds are judged
// against. The quartiles follow Python's statistics.quantiles(xs, n=4)
// (exclusive method), so the number matches what the benchmark's driver
// computes. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := sortedPercentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
