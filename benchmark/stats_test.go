package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A tail is reported only when at least ten samples lie beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 90, false}, {99, 90, false}, {100, 90, true},
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if got := tailOrZero(seq(999), 99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0: not reported", got)
	}
	if got := tailOrZero(seq(1000), 99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	// One window hit by a noisy neighbour does not move the figure.
	if got := medianOfWindows([]float64{100, 101, 99, 100, 5, 102}); got != 100 {
		t.Errorf("median of windows = %v, want 100", got)
	}
	// Windows without a value are skipped, not counted as zero.
	if got := medianOfWindows([]float64{math.NaN(), 3, 1, math.NaN(), 2}); got != 2 {
		t.Errorf("median skipping empty windows = %v, want 2", got)
	}
	if got := medianOfWindows(nil); !math.IsNaN(got) {
		t.Errorf("median of no windows = %v, want NaN", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 2, 38, 23, 38, 23, 21, 6, 17, 29})
	if math.Abs(q1-9) > 1e-12 || math.Abs(q3-31.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; python gives 9.0, 31.25", q1, q3)
	}
	if got := relativeSpread([]float64{100, 110}); math.Abs(got-10.0/105) > 1e-12 {
		t.Errorf("spread of two runs = %v, want range over median", got)
	}
}

func TestSummarizeWindows(t *testing.T) {
	// Two windows of one second; the second holds twice the work.
	run := &loadRun{bounds: []boundary{
		{at: 0, mallocs: 0},
		{at: 1e9, mallocs: 1000, cpu: 1e9},
		{at: 2e9, mallocs: 5000, cpu: 2e9},
	}}
	var chunk []sample
	for i := 0; i < 10; i++ {
		chunk = append(chunk, sample{endUs: uint32(i) * 1e5, latNs: 1e6, virtNs: 5e5, kind: opSync, ok: true})
	}
	for i := 0; i < 20; i++ {
		chunk = append(chunk, sample{endUs: 1e6 + uint32(i)*5e4, latNs: 2e6, virtNs: 5e5, kind: opSync, ok: true})
	}
	chunk = append(chunk,
		sample{endUs: 2e6 + 1, latNs: 9e8, kind: opSync, ok: true}, // after the last edge: counted, not timed
		sample{endUs: 5e5, latNs: 1e6, kind: opSync, ok: false},    // a failure
	)
	run.chunks = [][]sample{chunk[:7], chunk[7:]}
	s := run.summarize()
	if s.attempted != 32 || s.failed != 1 || s.invokes != 30 {
		t.Errorf("attempted/failed/invokes = %d/%d/%d, want 32/1/30", s.attempted, s.failed, s.invokes)
	}
	if s.opsPerS != 15 { // median of 10/s and 20/s
		t.Errorf("ops/s = %v, want 15", s.opsPerS)
	}
	if s.syncP50Ms != 1.5 || s.overheadRatio != 3 {
		t.Errorf("p50 %v ms, overhead %v; want 1.5, 3", s.syncP50Ms, s.overheadRatio)
	}
	if s.allocsPerOp != 150 { // median of 1000/10 and 4000/20
		t.Errorf("allocs/op = %v, want 150", s.allocsPerOp)
	}
	if len(s.tailNotes) != 2 || s.syncP99Ms != 900 {
		t.Errorf("p99 fallback: %v ms, notes %q; want the slowest sample and a note per tail", s.syncP99Ms, s.tailNotes)
	}
}
