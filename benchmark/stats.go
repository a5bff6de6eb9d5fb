package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer the figure is one slow request, not a tail.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantileSorted reads the q-quantile (0..1) off sorted samples by
// linear interpolation between closest ranks; NaN when empty.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the middle of xs (NaN when empty).
func median(xs []float64) float64 {
	return quantileSorted(sortedCopy(xs), 0.5)
}

// supported reports whether n samples leave at least minBeyond of them
// beyond percentile p.
func supported(n int, p float64) bool {
	const eps = 1e-9 // 100-99.9 is not exact in binary
	return float64(n)*(100-p)/100 >= minBeyond-eps
}

// tailOrZero is the p-th percentile of xs when at least minBeyond
// samples lie beyond it, else 0: a tail that is not there is not
// reported as one.
func tailOrZero(xs []float64, p float64) float64 {
	if !supported(len(xs), p) {
		return 0
	}
	return quantileSorted(sortedCopy(xs), p/100)
}

// medianOfWindows reduces one value per measurement window to their
// median, skipping windows that produced no value (NaN), so one
// noisy-neighbour blip cannot move the reported figure.
func medianOfWindows(perWindow []float64) float64 {
	var kept []float64
	for _, v := range perWindow {
		if !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	return median(kept)
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is the
// rule the benchmark's acceptance check uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	sorted := sortedCopy(xs)
	n := len(sorted)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + (sorted[j]-sorted[j-1])*frac
	}
	return at(1), at(3)
}

// relativeSpread is the run-to-run spread of xs as a share of their
// median: the interquartile distance with four or more runs, the full
// range with fewer (two or three runs have no quartiles worth the
// name).
func relativeSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	if len(xs) < 4 {
		s := sortedCopy(xs)
		return math.Abs((s[len(s)-1] - s[0]) / med)
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
