// Package perfmon models ConfBench's performance-monitoring
// integration (§III-B): upon each function execution the tool invokes
// `perf stat` and piggybacks the collected metrics — wall-clock time,
// instructions executed, cache misses, etc. — with the results
// returned to the user.
//
// Inside CCA realms performance counters are unavailable (perf cannot
// be used), so ConfBench falls back to a custom script-based monitor
// with a reduced metric set; this package models both paths and the
// selection between them.
package perfmon

import (
	"fmt"
	"strings"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
	"confbench/internal/tee"
)

// Stats mirrors the fields of a `perf stat` summary, extended with the
// TEE transition count ConfBench adds.
type Stats struct {
	// Wall is the measured wall-clock time.
	Wall time.Duration `json:"wall"`
	// Instructions retired (0 when the monitor cannot count them).
	Instructions uint64 `json:"instructions"`
	// Cycles consumed (0 when unavailable).
	Cycles uint64 `json:"cycles"`
	// CacheRefs is last-level cache references (0 when unavailable).
	CacheRefs uint64 `json:"cache_refs"`
	// CacheMisses is last-level cache misses (0 when unavailable).
	CacheMisses uint64 `json:"cache_misses"`
	// ContextSwitches observed.
	ContextSwitches uint64 `json:"context_switches"`
	// PageFaults observed.
	PageFaults uint64 `json:"page_faults"`
	// TEEExits is the number of world transitions (TDCALL/VMEXIT/RSI).
	TEEExits uint64 `json:"tee_exits"`
	// Monitor names the collector that produced the stats.
	Monitor string `json:"monitor"`
}

// IPC returns instructions per cycle (0 when unavailable).
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MissRate returns the cache miss ratio (0 when unavailable).
func (s Stats) MissRate() float64 {
	if s.CacheRefs == 0 {
		return 0
	}
	return float64(s.CacheMisses) / float64(s.CacheRefs)
}

// String renders the stats in a perf-stat-like layout.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%14.6f s  wall (%s)\n", s.Wall.Seconds(), s.Monitor)
	if s.Instructions > 0 {
		fmt.Fprintf(&b, "%14d    instructions  # %5.2f IPC\n", s.Instructions, s.IPC())
		fmt.Fprintf(&b, "%14d    cycles\n", s.Cycles)
		fmt.Fprintf(&b, "%14d    cache-refs\n", s.CacheRefs)
		fmt.Fprintf(&b, "%14d    cache-misses  # %5.2f%%\n", s.CacheMisses, 100*s.MissRate())
	}
	fmt.Fprintf(&b, "%14d    context-switches\n", s.ContextSwitches)
	fmt.Fprintf(&b, "%14d    page-faults\n", s.PageFaults)
	fmt.Fprintf(&b, "%14d    tee-exits", s.TEEExits)
	return b.String()
}

// Monitor names, as Stats.Monitor reports them.
const (
	NamePerfStat  = "perf-stat"
	NameCCAScript = "cca-script"
)

// Monitor collects Stats for one priced execution.
type Monitor interface {
	// Name identifies the collector.
	Name() string
	// Available reports whether the monitor works on platform k.
	Available(k tee.Kind) bool
	// Collect derives stats from the metered usage, the TEE charge,
	// and the host profile.
	Collect(u meter.Usage, charge tee.Charge, host cpumodel.Profile) Stats
}

// PerfStat is the default monitor: full hardware-counter access, as on
// the TDX and SEV-SNP hosts.
type PerfStat struct {
	// MissRate is the modeled LLC miss ratio applied to cache
	// references derived from memory traffic.
	MissRate float64
}

var _ Monitor = (*PerfStat)(nil)

// NewPerfStat returns the perf-stat monitor with a default miss rate.
func NewPerfStat() *PerfStat { return &PerfStat{MissRate: 0.028} }

// Name implements Monitor.
func (p *PerfStat) Name() string { return NamePerfStat }

// Available implements Monitor: perf counters exist everywhere except
// inside CCA realms.
func (p *PerfStat) Available(k tee.Kind) bool { return k != tee.KindCCA }

// Collect implements Monitor.
func (p *PerfStat) Collect(u meter.Usage, charge tee.Charge, host cpumodel.Profile) Stats {
	instr := u.Get(meter.CPUOps) + u.Get(meter.FPOps)
	cycles := uint64(charge.Total.Seconds() * host.BaseGHz * 1e9)
	refs := u.Get(meter.BytesTouched) / 64
	return Stats{
		Wall:            charge.Total,
		Instructions:    instr,
		Cycles:          cycles,
		CacheRefs:       refs,
		CacheMisses:     uint64(float64(refs) * p.MissRate),
		ContextSwitches: u.Get(meter.ContextSwitches),
		PageFaults:      u.Get(meter.PageFaults),
		TEEExits:        charge.Exits,
		Monitor:         p.Name(),
	}
}

// CCAScript is the custom script-based monitor ConfBench ships for
// realms: wall-clock plus the software-observable counters only.
type CCAScript struct{}

var _ Monitor = (*CCAScript)(nil)

// NewCCAScript returns the realm monitor.
func NewCCAScript() *CCAScript { return &CCAScript{} }

// Name implements Monitor.
func (c *CCAScript) Name() string { return NameCCAScript }

// Available implements Monitor: the script path works everywhere but
// is only selected where perf is not.
func (c *CCAScript) Available(tee.Kind) bool { return true }

// Collect implements Monitor: no hardware counters, so instruction,
// cycle, and cache fields stay zero.
func (c *CCAScript) Collect(u meter.Usage, charge tee.Charge, _ cpumodel.Profile) Stats {
	return Stats{
		Wall:            charge.Total,
		ContextSwitches: u.Get(meter.ContextSwitches),
		PageFaults:      u.Get(meter.PageFaults),
		TEEExits:        charge.Exits,
		Monitor:         c.Name(),
	}
}

// Select picks the right monitor for platform k: perf stat where
// counters exist, the custom script path inside CCA realms.
func Select(k tee.Kind) Monitor {
	ps := NewPerfStat()
	if ps.Available(k) {
		return ps
	}
	return NewCCAScript()
}
