//go:build !race

package vm

import (
	"context"
	"testing"

	"confbench/internal/tee"
)

// TestPriceAllocatesNothing: pricing an execution untraced — host cost,
// TEE charge, perf stats, on both VMs — is value arithmetic end to end.
func TestPriceAllocatesNothing(t *testing.T) {
	pair := tdxPair(t)
	lr := fibLaunch(t, pair)
	ctx := context.Background()
	var res Result
	for _, v := range []*VM{pair.Secure, pair.Normal} {
		if got := testing.AllocsPerRun(1000, func() { res = v.Price(ctx, lr, tee.NewKey("fib")) }); got != 0 {
			t.Errorf("%s: Price allocates %.0f times, want 0", v.Name(), got)
		}
		if res.Wall <= 0 || res.Perf.Monitor == "" {
			t.Errorf("%s: result = %+v", v.Name(), res)
		}
	}
}
