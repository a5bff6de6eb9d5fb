//go:build !race

package tee_test

import (
	"math/rand"
	"testing"

	"confbench/internal/tee"
)

// TestApplyAllocatesNothing: a charge's breakdown is a value indexed by
// counter, so pricing on a cost model touches no heap.
func TestApplyAllocatesNothing(t *testing.T) {
	cm, u, base := applyInputs(t)
	rng := rand.New(rand.NewSource(1))
	var c tee.Charge
	if got := testing.AllocsPerRun(1000, func() { c = cm.Apply(u, base, rng) }); got != 0 {
		t.Errorf("Apply allocates %.0f times, want 0", got)
	}
	if c.Total <= 0 {
		t.Errorf("charge = %+v", c)
	}
}
