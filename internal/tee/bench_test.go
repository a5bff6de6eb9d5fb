package tee_test

import (
	"math/rand"
	"testing"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
)

// applyInputs are the TDX cost model and the usage the repository's
// benchmark times Apply on (tee.costmodel_apply_ns), with its host cost.
func applyInputs(tb testing.TB) (tee.CostModel, meter.Usage, cpumodel.Breakdown) {
	tb.Helper()
	b, err := tdx.NewBackend(tdx.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	u := meter.Usage{meter.CPUOps: 1_000_000, meter.BytesTouched: 1 << 20, meter.Syscalls: 40, meter.IOWriteBytes: 64 << 10}
	return b.CostModel(), u, b.HostProfile().Cost(u)
}

// BenchmarkCostApply prices applyInputs once per op.
func BenchmarkCostApply(b *testing.B) {
	cm, u, base := applyInputs(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := cm.Apply(u, base, rng); c.Total <= 0 {
			b.Fatal("unpriced")
		}
	}
}
