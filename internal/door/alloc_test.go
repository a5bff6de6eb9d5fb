//go:build !race

package door

import (
	"context"
	"testing"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
)

// edgeExchangeCeiling bounds the allocations of one HTTP invoke across
// the REST edge on loopback, the client's and the door's together:
// 125 with encoding/json and http.Client, 94 with the typed codecs and
// one http.Transport round trip, 44 with the client's own HTTP/1.1
// exchange and no body limiter for a declared length (Go 1.24,
// linux/amd64).
const edgeExchangeCeiling = 47

// edgeBed is a door serving a canned invoke reply on loopback and a
// tenant's HTTP client for it, warmed by one exchange.
func edgeBed(tb testing.TB) (invoke func() (api.InvokeResponse, error), reply api.InvokeResponse) {
	reply = api.InvokeResponse{
		Output: "42", WallNs: 1_234_567, BootstrapNs: 89_000, Secure: true, Platform: tee.KindSEV,
		Perf: perfmon.Stats{Wall: 1_234_567, Instructions: 9_876_543, Cycles: 12_345_678,
			CacheRefs: 4_321, CacheMisses: 87, ContextSwitches: 3, PageFaults: 11, TEEExits: 5,
			Monitor: perfmon.NamePerfStat},
		Host: "sev-snp-host-1", VM: "sev-snp-secure-1",
	}
	srv, err := Listen("127.0.0.1:0", Config{
		Routes: []Handler{Post(api.PathV1Invoke,
			func(context.Context, string, api.InvokeRequest) (api.InvokeResponse, error) { return reply, nil })},
		Layer:   cberr.LayerGateway,
		OnError: func() {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	client, err := api.New("http://"+srv.Addr(), api.WithTenant("t1"))
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	req := api.InvokeRequest{Function: "fib-go", Scale: 5, Secure: true, TEE: tee.KindSEV}
	invoke = func() (api.InvokeResponse, error) { return client.Invoke(ctx, req) }
	if _, err := invoke(); err != nil { // dial and warm the pools
		tb.Fatal(err)
	}
	return invoke, reply
}

// TestEdgeExchangeAllocs pins what one Client.Invoke against a door
// allocates, so the cost the typed edge codecs cut cannot creep back.
func TestEdgeExchangeAllocs(t *testing.T) {
	invoke, reply := edgeBed(t)
	var got api.InvokeResponse
	var err error
	allocs := testing.AllocsPerRun(200, func() { got, err = invoke() })
	if err != nil || got != reply {
		t.Fatalf("Invoke = %+v, %v", got, err)
	}
	t.Logf("one edge exchange: %.1f allocations", allocs)
	if allocs > edgeExchangeCeiling {
		t.Errorf("one edge exchange allocates %.1f times, want at most %d", allocs, edgeExchangeCeiling)
	}
}

// BenchmarkEdgeExchange is one HTTP invoke across the edge, client and
// door together, on loopback.
func BenchmarkEdgeExchange(b *testing.B) {
	invoke, _ := edgeBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := invoke(); err != nil {
			b.Fatal(err)
		}
	}
}
