//go:build !race

package confbench_test

import (
	"context"
	"testing"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/faas"
)

// TestInvokeAllocationCeiling pins what one warmed invoke allocates on
// the binary carrier, client → gateway → relay → guest and back
// (AllocsPerRun counts the whole process). It reads 15: the output and
// the open strings each decode keeps, the invoke ID, the client's boxed
// request and response, the body's meter and fib's own allocations —
// pricing, closed-set identifiers and the gateway's per-invoke scratch
// stay off the heap (DESIGN.md §16). With pricing on maps it read 40.
func TestInvokeAllocationCeiling(t *testing.T) {
	c := newCluster(t, confbench.WithTransport("binary"), confbench.WithTEEs(confbench.KindSEV))
	client := c.Client()
	ctx := context.Background()
	fn := faas.Function{Name: "fib", Language: "go", Workload: "fib", Source: []byte("// fib in go")}
	if err := client.Upload(ctx, fn); err != nil {
		t.Fatal(err)
	}
	req := api.InvokeRequest{Function: "fib", Scale: 5, TEE: confbench.KindSEV}
	invoke := func() {
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		invoke()
	}
	const want = 16
	if got := testing.AllocsPerRun(1000, invoke); got > want {
		t.Fatalf("a warmed invoke allocates %.1f times, want at most %d", got, want)
	}
}
