package main

import (
	"testing"

	"confbench/internal/obs"
)

// invokeTree is the tree a traced invoke returns: the gateway's root,
// a pool checkout, the relay hop, and under the hop the guest agent's
// subtree grafted from the far side (offset 0: its clock is not the
// gateway's).
func invokeTree() *obs.SpanData {
	return &obs.SpanData{
		Layer: "gateway", Name: "/v1/invoke", DurNs: 100_000,
		Children: []*obs.SpanData{
			{Layer: "pool", Name: "checkout sev-snp", OffsetNs: 2_000, DurNs: 3_000},
			{Layer: "gateway", Name: "relay-hop 127.0.0.1:1", OffsetNs: 6_000, DurNs: 90_000,
				Children: []*obs.SpanData{
					{Layer: "hostagent", Name: "invoke sev-snp-host-normal", OffsetNs: 0, DurNs: 20_000,
						Children: []*obs.SpanData{
							{Layer: "vm", Name: "exec fib", OffsetNs: 1_000, DurNs: 8_000},
							{Layer: "tee", Name: "price sev-snp", OffsetNs: 10_000, DurNs: 6_000},
						}},
				}},
		},
	}
}

func TestSelfTimesByClass(t *testing.T) {
	got := make(map[string]int64)
	addSelfTimes(invokeTree(), got)
	want := map[string]int64{
		classDispatch: 100_000 - 3_000 - 90_000,
		classCheckout: 3_000,
		classHop:      90_000 - 20_000, // the grafted subtree counts once, wherever it sits
		classAgent:    20_000 - 8_000 - 6_000,
		classExec:     8_000,
		classPrice:    6_000,
	}
	var sum int64
	for class, w := range want {
		if got[class] != w {
			t.Errorf("%s self = %d ns, want %d", class, got[class], w)
		}
		sum += got[class]
	}
	if sum != 100_000 {
		t.Errorf("self times add to %d ns, want the root's 100000", sum)
	}
	if len(got) != len(want) {
		t.Errorf("classes %v, want exactly %d", got, len(want))
	}
}

func TestSelfTimeOverlapAndClipping(t *testing.T) {
	d := &obs.SpanData{Layer: "x", DurNs: 100, Children: []*obs.SpanData{
		{OffsetNs: 10, DurNs: 30},
		{OffsetNs: 20, DurNs: 30},  // overlaps the first: [10,50) covered once
		{OffsetNs: 90, DurNs: 50},  // outlasts the parent: clipped to [90,100)
		{OffsetNs: -5, DurNs: 10},  // starts before it: clipped to [0,5)
		{OffsetNs: 200, DurNs: 10}, // wholly outside: ignored
	}}
	if got := selfNs(d); got != 100-40-10-5 {
		t.Errorf("self = %d, want 45", got)
	}
}

func TestSpanAggMeans(t *testing.T) {
	a, b := newSpanAgg(), newSpanAgg()
	a.add(invokeTree(), 120_000)
	b.add(invokeTree(), 140_000)
	b.add(nil, 1) // an untraced reply adds nothing
	a.merge(b)
	if a.trees != 2 || a.rootNs != 200_000 || a.wallNs != 260_000 {
		t.Errorf("agg = %+v", a)
	}
	if got := a.meanUs(classHop); got != 70 {
		t.Errorf("mean hop self = %v us, want 70", got)
	}
}
