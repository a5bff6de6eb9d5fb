package cpumodel

import (
	"testing"
	"testing/quick"
	"time"

	"confbench/internal/meter"
)

func TestPredefinedProfilesValidate(t *testing.T) {
	for _, p := range []Profile{XeonGold5515, EPYC9124, FVPNeoverse} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []Profile{
		{},                              // no name
		{Name: "x"},                     // zero rates
		{Name: "x", BaseGHz: 1, IPC: 1}, // zero FPIPC
		{Name: "x", BaseGHz: 1, IPC: 1, FPIPC: 1}, // zero SimFactor
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, want := range []Profile{XeonGold5515, EPYC9124, FVPNeoverse} {
		got, err := ProfileByName(want.Name)
		if err != nil {
			t.Fatalf("ProfileByName(%s): %v", want.Name, err)
		}
		if got.Name != want.Name {
			t.Errorf("got %s", got.Name)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestCPUCostScalesWithClock(t *testing.T) {
	slow := Profile{Name: "slow", BaseGHz: 1, IPC: 1, FPIPC: 1, SimFactor: 1}
	fast := Profile{Name: "fast", BaseGHz: 2, IPC: 2, FPIPC: 2, SimFactor: 1}
	u := meter.Usage{meter.CPUOps: 1_000_000}
	if s, f := slow.TotalCost(u), fast.TotalCost(u); s != 4*f {
		t.Errorf("slow %v should be 4x fast %v", s, f)
	}
}

func TestSimFactorMultiplies(t *testing.T) {
	base := XeonGold5515
	sim := base
	sim.SimFactor = 3
	u := meter.Usage{meter.CPUOps: 1_000_000, meter.BytesTouched: 1 << 20}
	b, s := base.TotalCost(u), sim.TotalCost(u)
	ratio := float64(s) / float64(b)
	if ratio < 2.99 || ratio > 3.01 {
		t.Errorf("sim factor ratio = %v, want 3", ratio)
	}
}

func TestCostBreakdownComponents(t *testing.T) {
	u := meter.Usage{
		meter.CPUOps:      1000,
		meter.Syscalls:    10,
		meter.IOReadBytes: 4096,
	}
	b := XeonGold5515.Cost(u)
	nonZero := 0
	for _, d := range b {
		if d != 0 {
			nonZero++
		}
	}
	if nonZero != 3 {
		t.Fatalf("breakdown has %d components, want 3: %v", nonZero, b)
	}
	wantSys := time.Duration(10 * XeonGold5515.SyscallNs)
	if b[meter.Syscalls] != wantSys {
		t.Errorf("syscall cost %v, want %v", b[meter.Syscalls], wantSys)
	}
	if b.Total() != b[meter.CPUOps]+b[meter.Syscalls]+b[meter.IOReadBytes] {
		t.Error("Total != sum of components")
	}
}

func TestZeroUsageCostsNothing(t *testing.T) {
	if XeonGold5515.TotalCost(meter.Usage{}) != 0 {
		t.Error("empty usage should cost 0")
	}
}

func TestCounterCostsAllNonNegative(t *testing.T) {
	for _, c := range meter.AllCounters() {
		if XeonGold5515.CounterCostNs(c) < 0 {
			t.Errorf("negative cost for %s", c)
		}
	}
	if XeonGold5515.CounterCostNs(meter.Counter(999)) != 0 {
		t.Error("unknown counter should cost 0")
	}
}

func TestCostMonotoneInUsage(t *testing.T) {
	f := func(n1, n2 uint32) bool {
		lo, hi := uint64(n1), uint64(n1)+uint64(n2)
		cLo := XeonGold5515.TotalCost(meter.Usage{meter.BytesTouched: lo})
		cHi := XeonGold5515.TotalCost(meter.Usage{meter.BytesTouched: hi})
		return cHi >= cLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHostOrdering(t *testing.T) {
	// The FVP simulator must be slower than both bare-metal hosts for
	// identical work.
	u := meter.Usage{meter.CPUOps: 10_000_000, meter.BytesTouched: 8 << 20, meter.Syscalls: 1000}
	fvp := FVPNeoverse.TotalCost(u)
	if fvp <= XeonGold5515.TotalCost(u) || fvp <= EPYC9124.TotalCost(u) {
		t.Error("FVP should be the slowest host")
	}
}
