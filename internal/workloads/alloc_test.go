//go:build !race

package workloads

import (
	"testing"

	"confbench/internal/meter"
)

// TestBodyAllocationCeilings keeps a body's allocations on the work it
// meters (DESIGN.md §16): fixtures and vfs buffers are reserved once,
// so what is left is the library the workload exercises. The parent of
// ISSUE 24 read 69 530 over the catalog, 38 583 of them in
// compressibleText.
func TestBodyAllocationCeilings(t *testing.T) {
	ceilings := map[string]float64{
		"compress":   150,
		"wordcount":  100,
		"dd":         64,
		"iostress":   64,
		"filesystem": 64,
	}
	r := Default()
	var sum float64
	for _, name := range r.Names() {
		w, _ := r.Lookup(name)
		scale := guestMixScale(w)
		got := testing.AllocsPerRun(3, func() {
			if _, err := w.Run(meter.NewContext(), scale); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		sum += got
		limit, ok := ceilings[name]
		if name == "regexmatch" { // scale is its line count
			limit, ok = 4*float64(scale), true
		}
		if ok && got > limit {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", name, got, limit)
		}
	}
	if sum > 24_000 {
		t.Errorf("catalog: %.0f allocations per pass, ceiling 24000", sum)
	}
}
