package tee_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/container"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
)

// The map-based pricing meter.Usage and cpumodel.Breakdown had before
// they became arrays, copied verbatim but for the types, so the array
// walk can be checked against it term by term.

type refUsage map[meter.Counter]uint64

type refBreakdown map[meter.Counter]time.Duration

func (b refBreakdown) total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

func refCost(p cpumodel.Profile, u refUsage) refBreakdown {
	b := make(refBreakdown, len(u))
	for c, n := range u {
		ns := float64(n) * p.CounterCostNs(c) * p.SimFactor
		if ns <= 0 {
			continue
		}
		b[c] = time.Duration(ns)
	}
	return b
}

func refFactor(cm tee.CostModel, c meter.Counter) float64 {
	var f float64
	switch c {
	case meter.CPUOps, meter.FPOps:
		f = cm.CPUFactor
	case meter.BytesTouched:
		f = cm.MemFactor
	case meter.BytesAllocated:
		f = cm.AllocFactor
	case meter.IOReadBytes:
		f = cm.IOReadFactor
	case meter.IOWriteBytes:
		f = cm.IOWriteFactor
	case meter.NetBytes:
		f = cm.NetFactor
	case meter.LogLines:
		f = cm.LogFactor
	case meter.FileOps:
		f = cm.FileOpFactor
	case meter.ContextSwitches:
		f = cm.CtxSwitchFac
	case meter.ProcessSpawns:
		f = cm.SpawnFactor
	case meter.Syscalls:
		f = cm.SyscallFactor
	}
	if f <= 0 {
		return 1
	}
	return f
}

func refApply(cm tee.CostModel, u refUsage, base refBreakdown, rng *rand.Rand) (refBreakdown, uint64, time.Duration) {
	adj := make(refBreakdown, len(base)+2)
	for c, d := range base {
		nd := time.Duration(float64(d) * refFactor(cm, c))
		if nd > 0 {
			adj[c] = nd
		}
	}

	exits := uint64(float64(u[meter.Syscalls])*cm.ExitsPerSys) +
		uint64(float64(u[meter.ContextSwitches])*cm.ExitsPerSwitch)
	if exitCost := time.Duration(float64(exits) * cm.ExitNs); exitCost > 0 {
		adj[meter.Syscalls] += exitCost
	}

	if faults := u[meter.PageFaults]; faults > 0 && cm.PageAcceptNs > 0 {
		adj[meter.PageFaults] += time.Duration(float64(faults) * cm.PageAcceptNs)
	}

	total := adj.total()
	if cm.JitterStd > 0 && total > 0 {
		noise := 1 + rng.NormFloat64()*cm.JitterStd
		lo, hi := 1-4*cm.JitterStd, 1+4*cm.JitterStd
		noise = math.Max(lo, math.Min(hi, noise))
		if noise < 0.05 {
			noise = 0.05
		}
		total = time.Duration(float64(total) * noise)
	}
	return adj, exits, total
}

// randomUsage draws a usage whose counters are each zero a third of
// the time and otherwise span 0 to 2^40, so zero terms and large
// products all occur.
func randomUsage(rng *rand.Rand) refUsage {
	u := make(refUsage)
	for _, c := range meter.AllCounters() {
		if rng.Intn(3) == 0 {
			continue
		}
		u[c] = uint64(rng.Int63n(1 << uint(rng.Intn(41))))
	}
	return u
}

// usage is r as the array the package prices.
func (r refUsage) usage() meter.Usage {
	var u meter.Usage
	for c, v := range r {
		u[c] = v
	}
	return u
}

// pricing is one platform's pricing: its host and the cost models of
// its secure and its normal guest.
type pricing struct {
	name           string
	host           cpumodel.Profile
	secure, normal tee.CostModel
}

// pricings returns every backend's secure cost model — TDX on both
// firmwares, and a confidential container on TDX — beside the model
// of the normal guest it is compared with.
func pricings(t *testing.T) []pricing {
	t.Helper()
	tb, err := tdx.NewBackend(tdx.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buggy, err := tdx.NewBackend(tdx.Options{Seed: 1, FirmwareVersion: tdx.BuggyFirmware})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sev.NewBackend(sev.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cca.NewBackend(cca.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := container.NewBackend(tb)
	if err != nil {
		t.Fatal(err)
	}
	fvpNormal := tee.NormalCostModel()
	fvpNormal.JitterStd = 0.045 // the CCA backend's normal VM inside the simulator
	return []pricing{
		{"tdx", tb.HostProfile(), tb.CostModel(), tee.NormalCostModel()},
		{"tdx-buggy", buggy.HostProfile(), buggy.CostModel(), tee.NormalCostModel()},
		{"sev", sb.HostProfile(), sb.CostModel(), tee.NormalCostModel()},
		{"cca", cb.HostProfile(), cb.CostModel(), fvpNormal},
		{"tdx-container", cc.HostProfile(), cc.CostModel(), cc.NormalCostModel()},
	}
}

const usages = 10_000

// TestPricingMatchesMapReference prices 10 000 seeded random usages on
// every platform's secure and normal cost model, through the package's
// Cost/Apply and through the map reference with the same noise seed,
// and wants every breakdown term, Exits and Total equal.
func TestPricingMatchesMapReference(t *testing.T) {
	for i, p := range pricings(t) {
		for side, cm := range []tee.CostModel{p.secure, p.normal} {
			name := [...]string{p.name, p.name + "-normal"}[side]
			draw := rand.New(rand.NewSource(int64(i)))
			gotRNG, wantRNG := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
			for n := 0; n < usages; n++ {
				ref := randomUsage(draw)
				u := ref.usage()
				wantBase := refCost(p.host, ref)
				base := p.host.Cost(u)
				for _, c := range meter.AllCounters() {
					if base[c] != wantBase[c] {
						t.Fatalf("%s usage %d: Cost[%s] = %d, reference %d", name, n, c, base[c], wantBase[c])
					}
				}
				wantAdj, wantExits, wantTotal := refApply(cm, ref, wantBase, wantRNG)
				got := cm.Apply(u, base, gotRNG)
				for _, c := range meter.AllCounters() {
					if got.Breakdown[c] != wantAdj[c] {
						t.Fatalf("%s usage %d: Breakdown[%s] = %d, reference %d", name, n, c, got.Breakdown[c], wantAdj[c])
					}
				}
				if got.Exits != wantExits || got.Total != wantTotal {
					t.Fatalf("%s usage %d: exits %d total %d, reference %d %d", name, n, got.Exits, got.Total, wantExits, wantTotal)
				}
			}
		}
	}
}

// TestNoSecureDiscount prices 10 000 seeded random usages noise-free on
// every platform's secure and normal model and wants the secure charge
// at least the normal one in every breakdown term and in Total: without
// jitter, no secure price falls below its normal VM's.
func TestNoSecureDiscount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, p := range pricings(t) {
		secure, normal := p.secure, p.normal
		secure.JitterStd, normal.JitterStd = 0, 0
		draw := rand.New(rand.NewSource(int64(i)))
		for n := 0; n < usages; n++ {
			u := randomUsage(draw).usage()
			base := p.host.Cost(u)
			s, nc := secure.Apply(u, base, rng), normal.Apply(u, base, rng)
			for _, c := range meter.AllCounters() {
				if s.Breakdown[c] < nc.Breakdown[c] {
					t.Fatalf("%s usage %d: secure %s %v < normal %v", p.name, n, c, s.Breakdown[c], nc.Breakdown[c])
				}
			}
			if s.Total < nc.Total {
				t.Fatalf("%s usage %d: secure total %v < normal %v", p.name, n, s.Total, nc.Total)
			}
		}
	}
}
