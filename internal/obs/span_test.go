package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestStartSpanWithoutRootIsNil(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "gateway", "untraced")
	if s != nil {
		t.Fatal("StartSpan without an active root must return nil")
	}
	if ctx2 != ctx {
		t.Error("untraced StartSpan must return the context unchanged")
	}
	// Every nil-span method must be a no-op, not a panic.
	s.End()
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.AttachRemote(&SpanData{})
	if s.Data() != nil {
		t.Error("nil span Data() must be nil")
	}
}

// TestStartSpanDetail: the detail parts join onto the name only when a
// span is live, so the untraced path — every benchmarked invoke —
// allocates nothing for a name nobody will read.
func TestStartSpanDetail(t *testing.T) {
	ctx, root := NewRoot(context.Background(), "gateway", "/v1/invoke")
	_, s := StartSpan(ctx, "pool", "checkout", "tdx")
	s.End()
	root.End()
	if got := root.Data().Children[0].Name; got != "checkout tdx" {
		t.Fatalf("span name = %q, want %q", got, "checkout tdx")
	}
	untraced := context.Background()
	tee, wallNs := "tdx", int64(1234567)
	if n := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(untraced, "pool", "checkout", tee)
		s.SetAttrInt("wall_ns", wallNs)
		s.End()
	}); n != 0 {
		t.Fatalf("an untraced span allocates %.0f times, want 0", n)
	}
}

func TestSpanTreeParenting(t *testing.T) {
	ctx, root := NewRoot(context.Background(), "gateway", "/v1/invoke")
	poolCtx, pool := StartSpan(ctx, "pool", "checkout tdx")
	pool.SetAttr("vm", "tdx-host-secure")
	pool.End()
	_ = poolCtx
	relayCtx, relay := StartSpan(ctx, "gateway", "relay-hop")
	_, inner := StartSpan(relayCtx, "hostagent", "invoke")
	inner.SetAttrInt("exits", 42)
	inner.End()
	relay.End()
	root.End()

	d := root.Data()
	if d.Name != "/v1/invoke" || d.Layer != "gateway" {
		t.Fatalf("root = %s/%s", d.Layer, d.Name)
	}
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(d.Children))
	}
	if d.Children[0].Layer != "pool" || d.Children[0].Attrs["vm"] != "tdx-host-secure" {
		t.Errorf("pool child wrong: %+v", d.Children[0])
	}
	hop := d.Children[1]
	if len(hop.Children) != 1 || hop.Children[0].Layer != "hostagent" {
		t.Fatalf("relay-hop children wrong: %+v", hop.Children)
	}
	if hop.Children[0].Attrs["exits"] != "42" {
		t.Errorf("exits attr = %q", hop.Children[0].Attrs["exits"])
	}

	layers := d.Layers()
	want := []string{"gateway", "hostagent", "pool"}
	if len(layers) != len(want) {
		t.Fatalf("layers = %v, want %v", layers, want)
	}
	for i := range want {
		if layers[i] != want[i] {
			t.Fatalf("layers = %v, want %v", layers, want)
		}
	}
	if d.FindLayer("hostagent") != hop.Children[0] {
		t.Error("FindLayer(hostagent) returned wrong span")
	}
	if d.FindLayer("tee") != nil {
		t.Error("FindLayer(tee) should be nil")
	}
}

// TestAttachRemoteAcrossHop exercises the graft used on the gateway
// network hop: the guest side builds its own root (own clock), the
// gateway attaches its serialized form under the relay-hop span.
func TestAttachRemoteAcrossHop(t *testing.T) {
	// Guest side: independent root with a nested vm span.
	gctx, guestRoot := NewRoot(context.Background(), "hostagent", "invoke f")
	_, vmSpan := StartSpan(gctx, "vm", "exec f")
	vmSpan.End()
	guestRoot.End()
	remote := guestRoot.Data()

	// Gateway side.
	ctx, root := NewRoot(context.Background(), "gateway", "/v1/invoke")
	_, hop := StartSpan(ctx, "gateway", "relay-hop")
	hop.AttachRemote(remote)
	hop.End()
	root.End()

	d := root.Data()
	hopData := d.Children[0]
	if len(hopData.Children) != 1 {
		t.Fatalf("hop children = %d, want 1 (the remote subtree)", len(hopData.Children))
	}
	got := hopData.Children[0]
	if got.Layer != "hostagent" || len(got.Children) != 1 || got.Children[0].Layer != "vm" {
		t.Errorf("remote subtree not preserved: %+v", got)
	}
	// Remote clocks are incomparable: the graft point reports offset 0.
	if got.OffsetNs != 0 {
		t.Errorf("remote root offset = %d, want 0", got.OffsetNs)
	}

	layers := d.Layers()
	if len(layers) != 3 {
		t.Errorf("layers after graft = %v, want gateway/hostagent/vm", layers)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	_, s := NewRoot(context.Background(), "bench", "cell")
	s.End()
	d1 := s.Data().DurNs
	time.Sleep(2 * time.Millisecond)
	s.End()
	if d2 := s.Data().DurNs; d2 != d1 {
		t.Errorf("second End changed duration: %d != %d", d2, d1)
	}
}

func TestSpanOffsets(t *testing.T) {
	ctx, root := NewRoot(context.Background(), "gateway", "r")
	time.Sleep(time.Millisecond)
	_, child := StartSpan(ctx, "pool", "c")
	child.End()
	root.End()
	d := root.Data()
	if d.OffsetNs != 0 {
		t.Errorf("root offset = %d, want 0", d.OffsetNs)
	}
	if off := d.Children[0].OffsetNs; off <= 0 {
		t.Errorf("child offset = %d, want > 0", off)
	}
	if d.Children[0].DurNs > d.DurNs {
		t.Error("child duration exceeds root duration")
	}
}

func TestRenderTree(t *testing.T) {
	d := &SpanData{
		Name: "/v1/invoke", Layer: "gateway", DurNs: int64(12 * time.Millisecond),
		Children: []*SpanData{
			{Name: "checkout tdx", Layer: "pool", DurNs: int64(8 * time.Microsecond),
				Attrs: map[string]string{"vm": "tdx-0", "secure": "true"}},
			{Name: "relay-hop", Layer: "gateway", DurNs: int64(11 * time.Millisecond),
				Children: []*SpanData{
					{Name: "invoke", Layer: "hostagent", DurNs: int64(10 * time.Millisecond)},
				}},
		},
	}
	got := RenderTree(d)
	want := strings.Join([]string{
		"[gateway] /v1/invoke — 12ms",
		"  [pool] checkout tdx — 8µs (secure=true vm=tdx-0)",
		"  [gateway] relay-hop — 11ms",
		"    [hostagent] invoke — 10ms",
	}, "\n")
	if got != want {
		t.Errorf("RenderTree:\n got:\n%s\nwant:\n%s", got, want)
	}
}
