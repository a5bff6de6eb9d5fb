// Package obs is ConfBench's observability plane: a dependency-free
// metrics registry (counters, gauges, fixed-bucket latency
// histograms) plus lightweight trace spans carried on
// context.Context.
//
// The registry is built for the invoke hot path. Counters are sharded
// across cache-line-padded atomic cells, so concurrent writers on
// different Ps rarely contend on one word; reads sum the shards.
// Metric handles are meant to be resolved once (at component
// construction) and cached — the name→metric lookup takes a read lock
// but the Add/Observe calls themselves are lock-free.
//
// Spans ride on context.Context because ConfBench invocations already
// thread a context through every layer (client → gateway → pool →
// relay → host agent → VM → TEE pricing): the same plumbing that
// propagates cancellation across the network hop carries the span
// tree, and a layer that never heard of tracing stays zero-cost — if
// the context holds no active span, StartSpan returns a nil span
// whose methods are no-ops.
package obs

import (
	mrand "math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numShards is the counter shard count. A fixed power of two keeps
// the shard pick a single mask; 16 shards × 64 B = 1 KiB per counter,
// enough to spread writers on any host the test bed targets.
const numShards = 16

// paddedUint64 occupies a full cache line so neighbouring shards do
// not false-share.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, per-CPU-style sharded
// counter. The zero value is ready to use.
type Counter struct {
	shards [numShards]paddedUint64
}

// shardIndex picks a shard. math/rand/v2's top-level generator is
// per-P and lock-free in the runtime, so the pick itself never
// serializes writers; randomness only spreads load — totals stay
// exact because Value sums every shard.
func shardIndex() uint32 {
	return mrand.Uint32() & (numShards - 1)
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.shards[shardIndex()].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc increments by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the histogram upper bounds in seconds:
// 100 ns to 10 s in decades, covering relay hops (~µs) through full
// bench cells (~s).
var DefaultLatencyBuckets = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Histogram is a fixed-bucket latency histogram. Bucket counts, the
// observation count, and the sum are all atomics; bounds are frozen
// at construction.
type Histogram struct {
	bounds  []float64 // upper bounds in seconds, ascending
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
	// exemplars holds the most recent observation's reference (trace or
	// invoke ID) per bucket, one slot past the bounds for +Inf. Slots
	// stay "" until ObserveExemplar runs. A string is two words, so it
	// takes exMu rather than an atomic pointer, which would box every
	// reference on the heap.
	exMu      sync.Mutex
	exemplars []string
	// reg is the owning registry, used to count invalid observations;
	// nil when the histogram was built outside a registry.
	reg *Registry
}

// InvalidObservationsFamily counts histogram observations rejected as
// malformed (negative durations). The counter is registered on first
// rejection, so clean registries never expose it.
const InvalidObservationsFamily = "confbench_obs_invalid_observations_total"

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds:    bs,
		buckets:   make([]atomic.Uint64, len(bs)+1),
		exemplars: make([]string, len(bs)+1),
	}
}

// Observe records one duration. Negative durations are invalid input
// (a clock went backwards, or a caller subtracted the wrong way):
// they are clamped to zero — not silently misfiled with a decremented
// sum — and counted in confbench_obs_invalid_observations_total.
func (h *Histogram) Observe(d time.Duration) {
	h.observe(d)
}

// ObserveExemplar records one duration and remembers ref (a trace or
// invoke ID) as the exemplar of the bucket the observation lands in,
// so a latency outlier in a scrape can be chased back to the request
// that produced it.
func (h *Histogram) ObserveExemplar(d time.Duration, ref string) {
	i := h.observe(d)
	h.exMu.Lock()
	h.exemplars[i] = ref
	h.exMu.Unlock()
}

// observe records d and returns the index of its bucket.
func (h *Histogram) observe(d time.Duration) int {
	if d < 0 {
		if h.reg != nil {
			h.reg.Counter(InvalidObservationsFamily).Inc()
		}
		d = 0
	}
	s := d.Seconds()
	// First bound >= s, i.e. Prometheus `le` semantics; the final
	// bucket is +Inf.
	i := sort.SearchFloat64s(h.bounds, s)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	return i
}

// Exemplar returns the most recent exemplar reference recorded for
// bucket i (bounds-indexed; len(bounds) is +Inf), or "".
func (h *Histogram) Exemplar(i int) string {
	if i < 0 || i >= len(h.exemplars) {
		return ""
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exemplars[i]
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// metric kinds for exposition ordering.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// entry is one registered metric; the registry keys it by its id.
type entry struct {
	kind string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// labelBlock renders sorted label pairs, optionally appending one
// extra pair (used for histogram `le` labels).
func labelBlock(labels []string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteString(`"`)
	}
	if extraK != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraV))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format 0.0.4: backslash, double-quote, and newline must
// be written as \\, \", and \n or the line is unparseable.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unescapeLabelValue reverses escapeLabelValue; the merge path uses it
// when re-parsing canonical metric IDs.
func unescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	esc := false
	for _, r := range v {
		if esc {
			switch r {
			case 'n':
				b.WriteByte('\n')
			default: // \\ and \" unescape to themselves
				b.WriteRune(r)
			}
			esc = false
			continue
		}
		if r == '\\' {
			esc = true
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// sortLabels canonicalizes alternating key/value pairs by key. Odd
// trailing elements are dropped.
func sortLabels(labels []string) []string {
	n := len(labels) / 2
	pairs := make([][2]string, n)
	for i := 0; i < n; i++ {
		pairs[i] = [2]string{labels[2*i], labels[2*i+1]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	out := make([]string, 0, 2*n)
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out
}

// MetricID returns the canonical snapshot/exposition key for a family
// and label pairs, e.g. `confbench_http_requests_total{route="/v1/invoke",status="200"}`.
func MetricID(family string, labels ...string) string {
	return family + labelBlock(sortLabels(labels), "", "")
}

// Registry holds named metrics. Metrics are identified by a family
// name plus alternating label key/value pairs; asking twice for the
// same identity returns the same metric.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry, 64)}
}

// defaultRegistry backs components that are not handed an explicit
// registry.
var defaultRegistry = New()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// OrDefault returns r, or the process-wide registry when r is nil.
// Components resolve their registry through it once at construction.
func OrDefault(r *Registry) *Registry {
	if r == nil {
		return defaultRegistry
	}
	return r
}

// lookup returns the entry for id, creating it with mk under the
// write lock on first sight.
func (r *Registry) lookup(id string, mk func() *entry) *entry {
	r.mu.RLock()
	e := r.entries[id]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[id]; e != nil {
		return e
	}
	e = mk()
	r.entries[id] = e
	return e
}

// Counter returns the counter for family and label pairs, registering
// it on first use.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	ls := sortLabels(labels)
	e := r.lookup(family+labelBlock(ls, "", ""), func() *entry {
		return &entry{kind: kindCounter, counter: &Counter{}}
	})
	return e.counter
}

// Gauge returns the gauge for family and label pairs.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	ls := sortLabels(labels)
	e := r.lookup(family+labelBlock(ls, "", ""), func() *entry {
		return &entry{kind: kindGauge, gauge: &Gauge{}}
	})
	return e.gauge
}

// Histogram returns the histogram for family and label pairs with the
// default latency buckets.
func (r *Registry) Histogram(family string, labels ...string) *Histogram {
	return r.HistogramWith(family, DefaultLatencyBuckets, labels...)
}

// HistogramWith returns the histogram for family and label pairs,
// creating it with the given upper bounds (seconds) on first use.
// Bounds of an existing histogram are not changed.
func (r *Registry) HistogramWith(family string, bounds []float64, labels ...string) *Histogram {
	ls := sortLabels(labels)
	e := r.lookup(family+labelBlock(ls, "", ""), func() *entry {
		h := newHistogram(bounds)
		h.reg = r
		return &entry{kind: kindHistogram, hist: h}
	})
	return e.hist
}

// idEntry is a registered metric with the id it is registered under.
type idEntry struct {
	id string
	*entry
}

// entrySet copies the entry set out from under the lock, each entry
// with its map key, so no id is formatted again.
func (r *Registry) entrySet() []idEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]idEntry, 0, len(r.entries))
	for id, e := range r.entries {
		out = append(out, idEntry{id, e})
	}
	return out
}
