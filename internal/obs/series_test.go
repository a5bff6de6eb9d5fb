package obs

import (
	"math/rand"
	"testing"
	"time"
)

var seriesEpoch = time.Unix(1700000000, 0)

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries(3)
	for i := 0; i < 5; i++ {
		s.Record(seriesEpoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	w := s.Window(0)
	if len(w) != 3 || w[0].Value != 2 || w[2].Value != 4 {
		t.Errorf("Window = %+v, want values 2..4 oldest-first", w)
	}
	last, ok := s.Last()
	if !ok || last.Value != 4 {
		t.Errorf("Last = %+v ok=%v, want value 4", last, ok)
	}
}

func TestSeriesRate(t *testing.T) {
	s := NewSeries(10)
	// Counter grows 5/step over 1-second steps.
	for i := 0; i < 5; i++ {
		s.Record(seriesEpoch.Add(time.Duration(i)*time.Second), float64(i*5))
	}
	if got := s.Rate(0); got != 5 {
		t.Errorf("Rate(all) = %g, want 5", got)
	}
	if got := s.Rate(2); got != 5 {
		t.Errorf("Rate(2) = %g, want 5", got)
	}
	// Window of one sample (or an empty series) cannot produce a rate.
	if got := s.Rate(1); got != 0 {
		t.Errorf("Rate(1) = %g, want 0", got)
	}
	if got := NewSeries(4).Rate(0); got != 0 {
		t.Errorf("empty Rate = %g, want 0", got)
	}
	// A counter reset must not report a negative rate — and must not
	// zero the progress made before it either (see the dedicated
	// reset-mid-window test).
	s.Record(seriesEpoch.Add(5*time.Second), 0)
	if got := s.Rate(0); got < 0 {
		t.Errorf("Rate after reset = %g, want non-negative", got)
	}
}

// TestSeriesRateCounterResetMidWindow is the regression test for the
// whole-window zeroing bug: a counter reset (component restart) used
// to make last-first negative and Rate report 0 for the entire window,
// blanking confbench_invokes_per_sec for up to a full window after one
// restart. The fix sums per-step positive deltas, so only the reset
// step's progress is lost.
func TestSeriesRateCounterResetMidWindow(t *testing.T) {
	s := NewSeries(10)
	// 1-second steps: 50 -> 150 (+100), restart resets to 0 (skipped),
	// 0 -> 10 (+10). Window spans 3 seconds.
	samples := []float64{50, 150, 0, 10}
	for i, v := range samples {
		s.Record(seriesEpoch.Add(time.Duration(i)*time.Second), v)
	}
	want := (100.0 + 10.0) / 3.0
	if got := s.Rate(0); got != want {
		t.Fatalf("Rate with reset mid-window = %g, want %g (pre-fix code reports 0)", got, want)
	}
	// A monotone window is unaffected: per-step sum telescopes to
	// last-first.
	mono := NewSeries(10)
	for i, v := range []float64{10, 30, 60, 100} {
		mono.Record(seriesEpoch.Add(time.Duration(i)*time.Second), v)
	}
	if got := mono.Rate(0); got != 30 {
		t.Fatalf("monotone Rate = %g, want 30", got)
	}
	// A window starting right at the pre-reset peak (150, 0, 10) skips
	// the reset step and reports the remaining progress over the span.
	if got := s.Rate(3); got != 5 {
		t.Errorf("Rate(3) spanning the reset = %g, want 5", got)
	}
}

func TestSeriesSetRecordSnapshot(t *testing.T) {
	r := New()
	c := r.Counter("confbench_x_total")
	h := r.Histogram("confbench_x_seconds")
	set := NewSeriesSet(8)

	c.Add(10)
	h.Observe(time.Millisecond)
	set.RecordSnapshot(seriesEpoch, r.Snapshot())
	c.Add(20)
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	set.RecordSnapshot(seriesEpoch.Add(10*time.Second), r.Snapshot())

	if got := set.Series("confbench_x_total").Rate(0); got != 2 {
		t.Errorf("counter rate = %g, want 2", got)
	}
	if got := set.Series("confbench_x_seconds_count").Rate(0); got != 0.2 {
		t.Errorf("histogram count rate = %g, want 0.2", got)
	}
	rates := set.Rates(0, "confbench_x_total")
	if len(rates) != 1 || rates["confbench_x_total"] != 2 {
		t.Errorf("Rates = %v, want only confbench_x_total=2", rates)
	}
	if ids := set.IDs(); len(ids) != 2 {
		t.Errorf("IDs = %v, want 2 series", ids)
	}
	if set.Get("confbench_missing_total") != nil {
		t.Error("Get on unrecorded id should be nil")
	}
}

// TestSeriesRatePropertyMixedResets pins Rate under interleaved
// counter resets and growth inside one window: across many seeded
// random walks, the reported rate must equal the sum of the positive
// per-step deltas divided by the window's wall-clock span, computed
// independently of the implementation's loop.
func TestSeriesRatePropertyMixedResets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(30)
		s := NewSeries(n)
		values := make([]float64, n)
		v := float64(rng.Intn(100))
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0: // counter reset: a component restarted from zero.
				v = float64(rng.Intn(10))
			case 1: // idle step.
			default: // growth.
				v += float64(1 + rng.Intn(50))
			}
			values[i] = v
			s.Record(seriesEpoch.Add(time.Duration(i)*time.Second), v)
		}
		var want float64
		for i := 1; i < n; i++ {
			if d := values[i] - values[i-1]; d > 0 {
				want += d
			}
		}
		want /= float64(n - 1) // samples are 1s apart: span = (n-1)s
		if got := s.Rate(0); got != want {
			t.Fatalf("iter %d: Rate = %g, want %g (values %v)", iter, got, want, values)
		}
		if got := s.Rate(0); got < 0 {
			t.Fatalf("iter %d: negative rate %g", iter, got)
		}
	}
}

// TestSeriesRateMonotoneEndpoints: for a reset-free monotone series
// the per-step sum telescopes, so Rate must equal the naive
// (last-first)/span endpoints formula exactly.
func TestSeriesRateMonotoneEndpoints(t *testing.T) {
	s := NewSeries(8)
	vals := []float64{3, 3, 10, 12, 40, 41}
	for i, v := range vals {
		s.Record(seriesEpoch.Add(time.Duration(i*2)*time.Second), v)
	}
	span := float64((len(vals) - 1) * 2)
	want := (vals[len(vals)-1] - vals[0]) / span
	if got := s.Rate(0); got != want {
		t.Errorf("Rate = %g, want endpoints formula %g", got, want)
	}
}
