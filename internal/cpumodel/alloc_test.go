//go:build !race

package cpumodel

import (
	"testing"

	"confbench/internal/meter"
)

// TestCostAllocatesNothing: a Breakdown is a value indexed by counter.
func TestCostAllocatesNothing(t *testing.T) {
	u := meter.Usage{meter.CPUOps: 1_000_000, meter.BytesTouched: 1 << 20, meter.Syscalls: 40}
	var b Breakdown
	if got := testing.AllocsPerRun(1000, func() { b = XeonGold5515.Cost(u) }); got != 0 {
		t.Errorf("Cost allocates %.0f times, want 0", got)
	}
	if b.Total() <= 0 {
		t.Errorf("breakdown = %v", b)
	}
}
