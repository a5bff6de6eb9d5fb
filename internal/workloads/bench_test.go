package workloads

import (
	"testing"

	"confbench/internal/meter"
)

// BenchmarkCatalog runs every body at the guest-mix scale: the wall
// time and allocations of the execute half of a paired sample.
func BenchmarkCatalog(b *testing.B) {
	r := Default()
	for _, name := range r.Names() {
		w, _ := r.Lookup(name)
		scale := guestMixScale(w)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(meter.NewContext(), scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFixtures prices the two input builders the I/O and mixed
// bodies share, at the largest sizes the guest-mix scale asks for.
func BenchmarkFixtures(b *testing.B) {
	b.Run("pattern-2MiB", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(2 * mib)
		for i := 0; i < b.N; i++ {
			pattern(2*mib, 3)
		}
	})
	b.Run("compressibleText-1MiB", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(mib)
		for i := 0; i < b.N; i++ {
			compressibleText(mib)
		}
	})
}
