package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultSeriesCapacity is the per-metric sample retention of a
// SeriesSet built with capacity <= 0: at the scraper's default
// cadence it holds a few minutes of history, and at one sample per
// second it covers the "p99 over the last 60 samples" window six
// times over, for ~5 KiB per metric family.
const DefaultSeriesCapacity = 360

// Sample is one timestamped series point. Timestamps are supplied by
// the caller (the scraper passes time.Now(); deterministic tests pass
// synthetic instants), so windowed computations are a pure function
// of the recorded data.
type Sample struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// Series is a fixed-capacity ring buffer of samples for one metric.
// It retains the last N recorded points so windowed rate and
// percentile queries need no external time-series storage. The zero
// value is not usable; build with NewSeries.
type Series struct {
	mu      sync.Mutex
	samples []Sample
	head    int // next write position
	n       int // live sample count, <= len(samples)
}

// NewSeries returns a series retaining the last capacity samples
// (DefaultSeriesCapacity when capacity <= 0).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Series{samples: make([]Sample, capacity)}
}

// Record appends one sample, evicting the oldest when full.
func (s *Series) Record(at time.Time, v float64) {
	s.mu.Lock()
	s.samples[s.head] = Sample{At: at, Value: v}
	s.head = (s.head + 1) % len(s.samples)
	if s.n < len(s.samples) {
		s.n++
	}
	s.mu.Unlock()
}

// Len returns the retained sample count.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	return s.samples[(s.head-1+len(s.samples))%len(s.samples)], true
}

// Window returns the last window samples (all of them when window <=
// 0 or exceeds retention), oldest first.
func (s *Series) Window(window int) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	if window > 0 && window < n {
		n = window
	}
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		out[i] = s.samples[(s.head-n+i+len(s.samples))%len(s.samples)]
	}
	return out
}

// Rate returns the per-second rate of change across the last window
// samples: the sum of per-step increases divided by the window's time
// span. It needs at least two samples spanning nonzero time; otherwise
// it reports 0. Steps with a negative delta (a counter reset after a
// component restart) or a non-advancing clock are skipped, so one
// restart mid-window costs only the progress of the reset step
// instead of zeroing the whole window. For
// a monotone series the per-step sum telescopes to last-first, so the
// reported rate is unchanged from the naive endpoints formula.
//
// Units: value-units per second of wall-clock time — the divisor is
// the span between the window's first and last sample timestamps, not
// the sample count.
func (s *Series) Rate(window int) float64 {
	w := s.Window(window)
	if len(w) < 2 {
		return 0
	}
	secs := w[len(w)-1].At.Sub(w[0].At).Seconds()
	if secs <= 0 {
		return 0
	}
	var total float64
	for i := 1; i < len(w); i++ {
		delta := w[i].Value - w[i-1].Value
		if delta < 0 || w[i].At.Sub(w[i-1].At) <= 0 {
			continue
		}
		total += delta
	}
	return total / secs
}

// SeriesSet keys ring-buffer series by canonical metric ID. The
// scraper records one point per counter family (and per histogram
// observation count, keyed "<id>_count") at every scrape, turning
// cumulative registry totals into queryable time series.
type SeriesSet struct {
	capacity int

	mu     sync.Mutex
	series map[string]*Series
}

// NewSeriesSet returns an empty set whose series retain capacity
// samples each (DefaultSeriesCapacity when <= 0).
func NewSeriesSet(capacity int) *SeriesSet {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &SeriesSet{capacity: capacity, series: make(map[string]*Series, 64)}
}

// Series returns the series for id, creating it on first use.
func (ss *SeriesSet) Series(id string) *Series {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.series[id]
	if !ok {
		s = NewSeries(ss.capacity)
		ss.series[id] = s
	}
	return s
}

// Get returns the series for id, or nil when never recorded.
func (ss *SeriesSet) Get(id string) *Series {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.series[id]
}

// IDs lists the recorded series IDs, sorted.
func (ss *SeriesSet) IDs() []string {
	ss.mu.Lock()
	out := make([]string, 0, len(ss.series))
	for id := range ss.series {
		out = append(out, id)
	}
	ss.mu.Unlock()
	sort.Strings(out)
	return out
}

// RecordSnapshot records one point per counter in snap, plus one per
// histogram observation count under "<id>_count", all stamped at.
func (ss *SeriesSet) RecordSnapshot(at time.Time, snap Snapshot) {
	for id, v := range snap.Counters {
		ss.Series(id).Record(at, float64(v))
	}
	for id, h := range snap.Histograms {
		ss.Series(id+"_count").Record(at, float64(h.Count))
	}
}

// Rates returns the per-second windowed rate of every recorded series
// whose ID starts with one of the given family prefixes (all series
// when none are given), keyed by series ID. Zero-rate series are
// included so idle metrics read as explicit zeros, not absences.
func (ss *SeriesSet) Rates(window int, families ...string) map[string]float64 {
	out := make(map[string]float64)
	for _, id := range ss.IDs() {
		if len(families) > 0 {
			ok := false
			for _, f := range families {
				if strings.HasPrefix(id, f) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		out[id] = ss.Get(id).Rate(window)
	}
	return out
}
