//go:build !race

package wire

import (
	"testing"

	"confbench/internal/api"
	"confbench/internal/tee"
)

// TestDecodeAllocationCeilings: a decode copies the open strings it
// keeps and nothing else. TEE kinds, monitor names and runtime names
// decode to constants, so a perf-stat/SEV reply costs output, host and
// VM, and a front-door invoke only its function name.
func TestDecodeAllocationCeilings(t *testing.T) {
	resp, err := AppendInvokeResponse(nil, &benchInvokeResp)
	if err != nil {
		t.Fatal(err)
	}
	front := AppendFrontInvoke(nil, &api.TenantedInvoke{
		Req: api.InvokeRequest{Function: "fib-go", Scale: 5, TEE: tee.KindSEV},
	})
	var (
		gotResp  api.InvokeResponse
		gotFront api.TenantedInvoke
	)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"DecodeInvokeResponse", 3, func() { gotResp, err = DecodeInvokeResponse(resp) }},
		{"DecodeFrontInvoke", 1, func() { gotFront, err = DecodeFrontInvoke(front) }},
	} {
		if got := testing.AllocsPerRun(1000, c.run); got > c.max {
			t.Errorf("%s allocates %.0f times, want at most %.0f", c.name, got, c.max)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if gotResp.Platform != tee.KindSEV || gotFront.Req.TEE != tee.KindSEV {
		t.Fatalf("decoded %+v and %+v", gotResp, gotFront)
	}
}
