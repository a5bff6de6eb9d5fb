// Package cpumodel converts metered resource usage into virtual
// execution time under a concrete machine profile.
//
// ConfBench's evaluation compares execution times of identical
// workloads in secure and normal VMs on the same host, so what matters
// is a consistent cost model per host. Each Profile mirrors one of the
// paper's test beds (Intel Xeon Gold 5515+ for TDX, AMD EPYC 9124 for
// SEV-SNP, the ARM FVP simulator for CCA) and assigns a nanosecond
// cost to every metered counter. TEE backends later inflate specific
// components (memory traffic, I/O, syscalls) to produce the
// confidential-computing overheads the paper measures.
package cpumodel

import (
	"fmt"
	"time"

	"confbench/internal/meter"
)

// Profile describes the performance characteristics of one host
// machine. All rates are expressed as costs in nanoseconds so that
// converting a usage snapshot is a single weighted sum.
type Profile struct {
	// Name identifies the machine (used in reports).
	Name string
	// CPU describes the processor (documentation only).
	CPU string
	// BaseGHz is the nominal clock frequency.
	BaseGHz float64
	// IPC is the sustained instructions-per-cycle for integer work.
	IPC float64
	// FPIPC is the sustained floating-point ops-per-cycle.
	FPIPC float64
	// MemNsPerByte is the cost of touching one byte of memory beyond
	// cache (sequential-access amortized).
	MemNsPerByte float64
	// AllocNsPerByte is the additional allocator cost per heap byte.
	AllocNsPerByte float64
	// IONsPerByte is the storage cost per byte (NVMe-class).
	IONsPerByte float64
	// NetNsPerByte is the network cost per byte (10 GbE-class).
	NetNsPerByte float64
	// SyscallNs is the kernel entry/exit cost.
	SyscallNs float64
	// CtxSwitchNs is one scheduler context switch.
	CtxSwitchNs float64
	// SpawnNs is one process creation (fork+exec+wait).
	SpawnNs float64
	// LogNs is one console log line (formatting + tty write).
	LogNs float64
	// FileOpNs is one file metadata operation.
	FileOpNs float64
	// PageFaultNs is one first-touch page fault.
	PageFaultNs float64
	// SimFactor multiplies the total cost; 1.0 for bare metal, >1 for
	// software simulators such as the ARM FVP.
	SimFactor float64
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("cpumodel: profile has no name")
	}
	if p.BaseGHz <= 0 || p.IPC <= 0 || p.FPIPC <= 0 {
		return fmt.Errorf("cpumodel: profile %q has non-positive core rates", p.Name)
	}
	if p.SimFactor <= 0 {
		return fmt.Errorf("cpumodel: profile %q has non-positive SimFactor", p.Name)
	}
	return nil
}

// cpuOpNs is the cost of one abstract integer operation.
func (p Profile) cpuOpNs() float64 { return 1.0 / (p.BaseGHz * p.IPC) }

// fpOpNs is the cost of one floating-point operation.
func (p Profile) fpOpNs() float64 { return 1.0 / (p.BaseGHz * p.FPIPC) }

// CounterCostNs returns the per-unit cost in ns of counter c.
func (p Profile) CounterCostNs(c meter.Counter) float64 {
	switch c {
	case meter.CPUOps:
		return p.cpuOpNs()
	case meter.FPOps:
		return p.fpOpNs()
	case meter.BytesAllocated:
		return p.AllocNsPerByte
	case meter.BytesTouched:
		return p.MemNsPerByte
	case meter.IOReadBytes, meter.IOWriteBytes:
		return p.IONsPerByte
	case meter.NetBytes:
		return p.NetNsPerByte
	case meter.Syscalls:
		return p.SyscallNs
	case meter.ContextSwitches:
		return p.CtxSwitchNs
	case meter.ProcessSpawns:
		return p.SpawnNs
	case meter.LogLines:
		return p.LogNs
	case meter.FileOps:
		return p.FileOpNs
	case meter.PageFaults:
		return p.PageFaultNs
	default:
		return 0
	}
}

// Breakdown is the per-counter contribution to total virtual time,
// indexed by meter.Counter like meter.Usage.
type Breakdown [len(meter.Usage{})]time.Duration

// Total sums all components.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Cost converts a usage snapshot into a per-counter time breakdown
// under this profile (including SimFactor).
func (p Profile) Cost(u meter.Usage) Breakdown {
	var b Breakdown
	for c := meter.Counter(1); int(c) < len(u); c++ {
		ns := float64(u[c]) * p.CounterCostNs(c) * p.SimFactor
		if ns <= 0 {
			continue
		}
		b[c] = time.Duration(ns)
	}
	return b
}

// TotalCost converts a usage snapshot directly to a duration.
func (p Profile) TotalCost(u meter.Usage) time.Duration {
	return p.Cost(u).Total()
}

// Predefined host profiles mirroring the paper's §IV-A test beds. The
// constants are order-of-magnitude calibrations for the respective
// CPU classes; the benchmark results depend on secure/normal ratios,
// not on these absolute rates.
var (
	// XeonGold5515 models the TDX host: 8-core Intel Xeon Gold 5515+
	// at 3.20 GHz, 64 GiB RAM, Ubuntu 24.04.
	XeonGold5515 = Profile{
		Name:           "xeon-gold-5515+",
		CPU:            "Intel Xeon Gold 5515+ (8c, 3.20 GHz)",
		BaseGHz:        3.20,
		IPC:            2.6,
		FPIPC:          2.0,
		MemNsPerByte:   0.045,
		AllocNsPerByte: 0.020,
		IONsPerByte:    0.45,
		NetNsPerByte:   0.80,
		SyscallNs:      260,
		CtxSwitchNs:    1800,
		SpawnNs:        140_000,
		LogNs:          1800,
		FileOpNs:       2800,
		PageFaultNs:    450,
		SimFactor:      1.0,
	}

	// EPYC9124 models the SEV-SNP host: 16-core AMD EPYC 9124 at
	// 3.0 GHz, 64 GiB RAM, Ubuntu 22.04.
	EPYC9124 = Profile{
		Name:           "epyc-9124",
		CPU:            "AMD EPYC 9124 (16c, 3.0 GHz)",
		BaseGHz:        3.00,
		IPC:            2.5,
		FPIPC:          1.9,
		MemNsPerByte:   0.050,
		AllocNsPerByte: 0.022,
		IONsPerByte:    0.42,
		NetNsPerByte:   0.82,
		SyscallNs:      280,
		CtxSwitchNs:    1900,
		SpawnNs:        150_000,
		LogNs:          1900,
		FileOpNs:       2900,
		PageFaultNs:    480,
		SimFactor:      1.0,
	}

	// FVPNeoverse models the ARM Fixed Virtual Platform running the
	// CCA software stack. ARM claims FVP runs "at speeds comparable to
	// the real hardware", but both the realm and the normal VM live
	// inside the simulator, so the absolute rates carry an explicit
	// simulation factor; the CCA backend adds realm-specific costs.
	FVPNeoverse = Profile{
		Name:           "fvp-neoverse",
		CPU:            "ARM FVP Base RevC (Neoverse-class model)",
		BaseGHz:        2.00,
		IPC:            1.6,
		FPIPC:          1.2,
		MemNsPerByte:   0.080,
		AllocNsPerByte: 0.035,
		IONsPerByte:    0.90,
		NetNsPerByte:   1.60,
		SyscallNs:      520,
		CtxSwitchNs:    3800,
		SpawnNs:        290_000,
		LogNs:          3600,
		FileOpNs:       5600,
		PageFaultNs:    900,
		SimFactor:      2.4,
	}
)

// ProfileByName resolves one of the predefined profiles.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case XeonGold5515.Name:
		return XeonGold5515, nil
	case EPYC9124.Name:
		return EPYC9124, nil
	case FVPNeoverse.Name:
		return FVPNeoverse, nil
	default:
		return Profile{}, fmt.Errorf("cpumodel: unknown profile %q", name)
	}
}
