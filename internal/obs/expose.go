package obs

import (
	"io"
	"strconv"
)

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; the implicit
	// final bucket is +Inf.
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket (non-cumulative) observation counts, one
	// per bound plus the +Inf overflow bucket.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// SumSeconds is the sum of all observed durations.
	SumSeconds float64 `json:"sum_seconds"`
	// Exemplars holds, per bucket, the trace/invoke ID of the most
	// recent observation recorded with ObserveExemplar ("" when none).
	// Omitted entirely when the histogram never saw an exemplar.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts,
// Prometheus histogram_quantile style: find the bucket where the
// cumulative count crosses q·total and interpolate linearly inside
// it. Observations beyond the last finite bound report that bound.
// Returns 0 when the histogram is empty.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 || len(hs.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hs.Count)
	var cum uint64
	for i, bound := range hs.Bounds {
		if i >= len(hs.Counts) {
			break
		}
		prev := cum
		cum += hs.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = hs.Bounds[i-1]
			}
			if hs.Counts[i] == 0 {
				return bound
			}
			frac := (rank - float64(prev)) / float64(hs.Counts[i])
			return lower + (bound-lower)*frac
		}
	}
	// Crossed into the +Inf bucket: the last finite bound is the best
	// answer the fixed buckets can give.
	return hs.Bounds[len(hs.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, keyed by canonical
// metric id (see MetricID). It is the JSON body of GET /v1/obs.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range r.entrySet() {
		id := e.id
		switch e.kind {
		case kindCounter:
			snap.Counters[id] = e.counter.Value()
		case kindGauge:
			snap.Gauges[id] = e.gauge.Value()
		case kindHistogram:
			h := e.hist
			hs := HistogramSnapshot{
				Bounds:     append([]float64(nil), h.bounds...),
				Counts:     make([]uint64, len(h.buckets)),
				Count:      h.Count(),
				SumSeconds: h.Sum().Seconds(),
			}
			for i := range h.buckets {
				hs.Counts[i] = h.buckets[i].Load()
			}
			for i := range h.exemplars {
				if ref := h.Exemplar(i); ref != "" {
					if hs.Exemplars == nil {
						hs.Exemplars = make([]string, len(h.buckets))
					}
					hs.Exemplars[i] = ref
				}
			}
			snap.Histograms[id] = hs
		}
	}
	return snap
}

// formatFloat renders a float the way Prometheus clients expect
// (shortest round-trip representation).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4): its snapshot, through
// WriteSnapshotPrometheus, so consecutive scrapes of an idle registry
// are byte-identical and a registry renders as its federated view does.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteSnapshotPrometheus(w, r.Snapshot())
}
