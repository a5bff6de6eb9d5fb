//go:build !race

package langs

import (
	"runtime"
	"testing"

	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

// TestPricingInputsAllocateNothing: amplifying a run's usage and
// building the bootstrap usage are value arithmetic on meter.Usage.
func TestPricingInputsAllocateNothing(t *testing.T) {
	p, err := ProfileFor(LangPython)
	if err != nil {
		t.Fatal(err)
	}
	raw := meter.Usage{meter.CPUOps: 10_000, meter.FPOps: 500, meter.BytesAllocated: 4096, meter.Syscalls: 3}
	var run, boot meter.Usage
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Amplify", func() { run = Amplify(p, raw) }},
		{"BootstrapUsage", func() { boot = BootstrapUsage(p) }},
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got != 0 {
			t.Errorf("%s allocates %.0f times, want 0", c.name, got)
		}
	}
	if run.Get(meter.CPUOps) == 0 || boot.Get(meter.BytesTouched) == 0 {
		t.Errorf("run %v, boot %v", run, boot)
	}
}

// TestWasmLauncherAllocationCeiling: the bench module is built (and
// validated) once per process and shared, so a launcher allocates its
// runtime fallback, its mappings and one instance, whose NewInstance
// still validates the code. It reads 57; building the module per
// launcher read 176.
func TestWasmLauncherAllocationCeiling(t *testing.T) {
	catalog := workloads.Default()
	if _, err := NewWasmLauncher(tee.KindTDX, catalog); err != nil {
		t.Fatal(err)
	}
	const want = 64
	got := testing.AllocsPerRun(20, func() {
		if _, err := NewWasmLauncher(tee.KindTDX, catalog); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("NewWasmLauncher allocates %.0f times, want at most %d", got, want)
	}
}

// TestLaunchersHoldNoLinearMemory: a VM's launchers back no Wasm linear
// memory until a guest touches it, so building them allocates a few
// tens of KiB, not the 4 MiB memory of the bench module that every
// instance zeroed at instantiation (4 139 KiB).
func TestLaunchersHoldNoLinearMemory(t *testing.T) {
	catalog := workloads.Default()
	if _, err := NewAllLaunchers(tee.KindTDX, catalog); err != nil {
		t.Fatal(err) // builds the shared bench module
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewAllLaunchers(tee.KindTDX, catalog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const want = 256 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewAllLaunchers allocates %d KiB", got>>10)
	if got > want {
		t.Fatalf("NewAllLaunchers allocates %d KiB, want at most %d KiB", got>>10, want>>10)
	}
}
