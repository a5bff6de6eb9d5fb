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

func refSignatureHash(salt uint64, u refUsage) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ salt
	for _, c := range meter.AllCounters() {
		v := u[c]
		var q uint64
		for v > 15 {
			v >>= 1
			q++
		}
		h ^= q<<8 | v
		h *= prime
		h ^= uint64(c)
		h *= prime
	}
	return h
}

func refApply(cm tee.CostModel, salt uint64, u refUsage, base refBreakdown, rng *rand.Rand) (refBreakdown, uint64, time.Duration) {
	adj := make(refBreakdown, len(base)+2)

	discount := 1.0
	if cm.CacheBonusProb > 0 {
		h := refSignatureHash(salt, u)
		if float64(h%1000)/1000 < cm.CacheBonusProb {
			frac := 0.5 + float64(h>>10%512)/1024
			discount = 1 - cm.CacheBonusMag*frac
			if discount < 0 {
				discount = 0
			}
		}
	}

	for c, d := range base {
		f := refFactor(cm, c)
		switch c {
		case meter.BytesTouched, meter.BytesAllocated, meter.CPUOps, meter.FPOps:
			f *= discount
		}
		nd := time.Duration(float64(d) * f)
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
// the time and otherwise span 0 to 2^40, so signatures, zero terms and
// large products all occur.
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

// TestPricingMatchesMapReference prices 10 000 seeded random usages on
// each backend's secure cost model (TDX on both firmwares) and on the
// normal models, through the package's Cost/Apply and through the map
// reference with the same noise seed, and wants every breakdown term,
// Exits and Total equal.
func TestPricingMatchesMapReference(t *testing.T) {
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
	fvpNormal := tee.NormalCostModel()
	fvpNormal.JitterStd = 0.045 // the CCA backend's normal VM inside the simulator
	models := []struct {
		name string
		host cpumodel.Profile
		cm   tee.CostModel
	}{
		{"tdx", tb.HostProfile(), tb.CostModel()},
		{"tdx-buggy", buggy.HostProfile(), buggy.CostModel()},
		{"tdx-normal", tb.HostProfile(), tee.NormalCostModel()},
		{"sev", sb.HostProfile(), sb.CostModel()},
		{"sev-normal", sb.HostProfile(), tee.NormalCostModel()},
		{"cca", cb.HostProfile(), cb.CostModel()},
		{"cca-normal", cb.HostProfile(), fvpNormal},
	}
	const usages = 10_000
	for i, m := range models {
		salt := uint64(i+1) * 0x9E3779B97F4A7C15
		cm := m.cm.WithSalt(salt)
		draw := rand.New(rand.NewSource(int64(i)))
		gotRNG, wantRNG := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
		for n := 0; n < usages; n++ {
			ref := randomUsage(draw)
			u := meter.Usage{}
			for c, v := range ref {
				u[c] = v
			}
			wantBase := refCost(m.host, ref)
			base := m.host.Cost(u)
			for _, c := range meter.AllCounters() {
				if base[c] != wantBase[c] {
					t.Fatalf("%s usage %d: Cost[%s] = %d, reference %d", m.name, n, c, base[c], wantBase[c])
				}
			}
			wantAdj, wantExits, wantTotal := refApply(m.cm, salt, ref, wantBase, wantRNG)
			got := cm.Apply(u, base, gotRNG)
			for _, c := range meter.AllCounters() {
				if got.Breakdown[c] != wantAdj[c] {
					t.Fatalf("%s usage %d: Breakdown[%s] = %d, reference %d", m.name, n, c, got.Breakdown[c], wantAdj[c])
				}
			}
			if got.Exits != wantExits || got.Total != wantTotal {
				t.Fatalf("%s usage %d: exits %d total %d, reference %d %d", m.name, n, got.Exits, got.Total, wantExits, wantTotal)
			}
		}
	}
}
