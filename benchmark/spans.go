package main

import (
	"sort"
	"strings"

	"confbench/internal/obs"
)

// Span classes: every span of an invoke's tree falls in one, and the
// class is the per-layer metric its self time is reported under.
const (
	classDispatch = "gateway.dispatch_self_us"
	classCheckout = "gateway.pool_checkout_us"
	classHop      = "wire.hop_self_us"
	classAgent    = "hostagent.invoke_self_us"
	classExec     = "vm.exec_us"
	classPrice    = "tee.price_us"
	classOther    = "other"
)

// spanClass maps a span to its class. The gateway's relay-hop span
// covers the carrier both ways plus the relay; its self time, once the
// guest agent's grafted subtree is taken out, is the hop.
func spanClass(d *obs.SpanData) string {
	switch d.Layer {
	case "gateway":
		if strings.HasPrefix(d.Name, "relay-hop") {
			return classHop
		}
		return classDispatch
	case "pool":
		return classCheckout
	case "hostagent":
		return classAgent
	case "vm":
		return classExec
	case "tee":
		return classPrice
	}
	return classOther
}

// selfNs is a span's self time: its duration minus the part of that
// interval its children cover. Children are placed at their offset on
// the parent's clock; a subtree grafted from the far side of a hop
// carries offset 0 (the clocks are not comparable), which places it at
// the parent's start — its length still counts once. Overlapping
// children are not double-counted, and a child that outlasts its
// parent is clipped to it.
func selfNs(d *obs.SpanData) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(d.Children))
	for _, c := range d.Children {
		lo, hi := c.OffsetNs, c.OffsetNs+c.DurNs
		if lo < 0 {
			lo = 0
		}
		if hi > d.DurNs {
			hi = d.DurNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return d.DurNs - covered
}

// addSelfTimes adds every span's self time in the tree to into, by
// class.
func addSelfTimes(d *obs.SpanData, into map[string]int64) {
	if d == nil {
		return
	}
	into[spanClass(d)] += selfNs(d)
	for _, c := range d.Children {
		addSelfTimes(c, into)
	}
}

// spanAgg accumulates self times over many invokes' trees.
type spanAgg struct {
	trees  int
	selfNs map[string]int64
	rootNs int64 // Σ root span durations
	wallNs int64 // Σ client latencies of the same invokes
}

func newSpanAgg() *spanAgg { return &spanAgg{selfNs: make(map[string]int64)} }

// add folds one invoke's tree and client latency in.
func (a *spanAgg) add(root *obs.SpanData, clientNs int64) {
	if root == nil {
		return
	}
	a.trees++
	a.rootNs += root.DurNs
	a.wallNs += clientNs
	addSelfTimes(root, a.selfNs)
}

// merge folds another aggregate in.
func (a *spanAgg) merge(b *spanAgg) {
	a.trees += b.trees
	a.rootNs += b.rootNs
	a.wallNs += b.wallNs
	for k, v := range b.selfNs {
		a.selfNs[k] += v
	}
}

// meanUs is the mean self time per invoke of one class, in µs.
func (a *spanAgg) meanUs(class string) float64 {
	if a.trees == 0 {
		return 0
	}
	return float64(a.selfNs[class]) / float64(a.trees) / 1e3
}
