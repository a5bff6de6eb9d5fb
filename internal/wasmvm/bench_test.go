package wasmvm

import (
	"fmt"
	"testing"
)

// BenchmarkWasmExports runs each export the Wasm launcher maps at the
// argument the figures workload gives it (catalog default scale / 8,
// memstress clamped to the 4 MiB linear memory).
func BenchmarkWasmExports(b *testing.B) {
	for _, c := range []struct {
		export string
		arg    int64
	}{
		{"memstress", BenchMemPages * PageSize},
		{"sieve", 25_000},
		{"cpustress", 25_000},
		{"matmul", 12},
		{"fib", 2},
	} {
		b.Run(fmt.Sprintf("%s(%d)", c.export, c.arg), func(b *testing.B) {
			in := benchInstance(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.Fuel = DefaultFuel
				if _, err := in.Invoke(c.export, c.arg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(in.Stats().Instructions)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
