package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SpanData is the serializable form of a span tree. It travels inside
// InvokeResponse across the gateway → client hop, and (for the guest
// half of a trace) inside the guest agent's response across the
// host → gateway hop, where the gateway grafts it under its relay-hop
// span.
type SpanData struct {
	// Name describes the operation ("checkout tdx", "exec hot-loop").
	Name string `json:"name"`
	// Layer is the architectural layer that produced the span:
	// gateway, pool, hostagent, vm, faas, tee, bench.
	Layer string `json:"layer"`
	// OffsetNs is the span's start offset from its parent's start, on
	// the parent's clock. Remote subtrees grafted across a network hop
	// keep their own internal offsets but report 0 at the graft point
	// (the two clocks are not comparable).
	OffsetNs int64 `json:"offset_ns,omitempty"`
	// DurNs is the span duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
	// Attrs carries span attributes (exit counts, byte totals, VM
	// names).
	Attrs map[string]string `json:"attrs,omitzero"`
	// Children are the nested spans, in start order.
	Children []*SpanData `json:"children,omitzero"`
}

// Duration returns the span duration.
func (d *SpanData) Duration() time.Duration { return time.Duration(d.DurNs) }

// Layers returns the distinct layer names in the tree, sorted.
func (d *SpanData) Layers() []string {
	seen := make(map[string]bool)
	d.walk(func(s *SpanData) { seen[s.Layer] = true })
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// FindLayer returns the first span (pre-order) on the given layer,
// or nil.
func (d *SpanData) FindLayer(layer string) *SpanData {
	var found *SpanData
	d.walk(func(s *SpanData) {
		if found == nil && s.Layer == layer {
			found = s
		}
	})
	return found
}

// walk visits the tree pre-order.
func (d *SpanData) walk(fn func(*SpanData)) {
	if d == nil {
		return
	}
	fn(d)
	for _, c := range d.Children {
		c.walk(fn)
	}
}

// Span is one in-flight trace span. A nil *Span is valid: every
// method is a no-op, which is what StartSpan hands back when no trace
// is active on the context — untraced requests pay one context lookup
// and nothing else.
type Span struct {
	name        string
	layer       string
	start       time.Time
	parentStart time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    [][2]string
	children []*Span
	remote   []*SpanData
}

// spanKey carries the active span on a context.
type spanKey struct{}

// NewRoot starts a new root span regardless of what the context
// carries, and returns a context with it active. The caller owns the
// root: End it and serialize with Data.
func NewRoot(ctx context.Context, layer, name string) (context.Context, *Span) {
	s := &Span{name: name, layer: layer, start: time.Now()}
	s.parentStart = s.start
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpan starts a child of the context's active span, named name
// followed by each detail, space-separated. When the context carries
// no span (tracing not requested), it returns the context unchanged
// and a nil span before joining the name, so an untraced caller passes
// the parts and allocates nothing.
func StartSpan(ctx context.Context, layer, name string, detail ...string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	for _, d := range detail {
		name += " " + d
	}
	s := &Span{name: name, layer: layer, start: time.Now(), parentStart: parent.start}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, s), s
}

// End freezes the span's duration. Later End calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, [2]string{k, v})
	s.mu.Unlock()
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(k string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(k, strconv.FormatInt(v, 10))
}

// AttachRemote grafts a subtree that was produced on the far side of
// a network hop (its clock is not comparable, so it keeps offset 0).
func (s *Span) AttachRemote(d *SpanData) {
	if s == nil || d == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, d)
	s.mu.Unlock()
}

// Data serializes the span tree. Spans that were never ended report
// the duration up to now.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	d := &SpanData{
		Name:     s.name,
		Layer:    s.layer,
		OffsetNs: s.start.Sub(s.parentStart).Nanoseconds(),
		DurNs:    dur.Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, kv := range s.attrs {
			d.Attrs[kv[0]] = kv[1]
		}
	}
	children := append([]*Span(nil), s.children...)
	remote := append([]*SpanData(nil), s.remote...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	d.Children = append(d.Children, remote...)
	return d
}
