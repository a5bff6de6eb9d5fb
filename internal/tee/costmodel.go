package tee

import (
	"math"
	"math/rand"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
)

// CostModel encodes how a TEE inflates the base execution cost of a
// workload. The factors map onto the mechanisms the paper identifies:
//
//   - memory encryption and integrity checking scale the cost of
//     memory traffic (MemFactor) and of fresh allocations, which
//     require page acceptance / RMP updates (AllocFactor, PageAcceptNs);
//   - I/O through unprotected shared memory pays a per-byte copy tax —
//     the TDX bounce-buffer effect (IOReadFactor/IOWriteFactor);
//   - every syscall may force a world transition whose latency is
//     ExitNs (TDCALL/SEAMCALL on TDX, VMEXIT on SEV-SNP, RSI on CCA);
//   - context switches and process creation are amplified by the
//     "frequent sleep and wake-up events" effect reported for
//     UnixBench (CtxSwitchFactor, SpawnFactor).
type CostModel struct {
	CPUFactor     float64 // multiplier on CPU/FP op cost (≈1)
	MemFactor     float64 // multiplier on bytes-touched cost
	AllocFactor   float64 // multiplier on bytes-allocated cost
	IOReadFactor  float64 // multiplier on storage reads
	IOWriteFactor float64 // multiplier on storage writes
	NetFactor     float64 // multiplier on network traffic
	LogFactor     float64 // multiplier on console logging
	FileOpFactor  float64 // multiplier on file metadata ops
	CtxSwitchFac  float64 // multiplier on context switches
	SpawnFactor   float64 // multiplier on process creation
	SyscallFactor float64 // multiplier on kernel-entry cost
	ExitNs        float64 // latency of one TEE world transition
	ExitsPerSys   float64 // world transitions per syscall (plain
	// syscalls stay inside the guest; only the small device/timer
	// share forces a transition)
	ExitsPerSwitch float64 // world transitions per context switch —
	// the "frequent sleep and wake-up events" effect the paper cites
	// for UnixBench slowdowns
	PageAcceptNs float64 // extra cost per first-touch page fault
	StartupNs    float64 // one-time guest boot overhead
	JitterStd    float64 // relative gaussian noise on the total

	// Snapshot/restore pricing. Capturing a guest memory image pays a
	// per-page export cost on top of the full measured build; restoring
	// from the image pays a fixed base (re-create the guest context,
	// install the saved measurement) plus a per-page replay charge
	// (page-table/RMP re-donation without re-hashing). The asymmetry —
	// restore skips the measurement work that dominates launch — is what
	// makes warm starts cheap.
	SnapshotPageNs float64 // per-page memory-image capture cost
	RestoreBaseNs  float64 // fixed guest-context rebuild cost on restore
	RestorePageNs  float64 // per-page unmeasured replay cost on restore
}

// NormalCostModel returns the identity model used by non-confidential
// guests: factors of 1, no transition charges, small scheduler jitter.
func NormalCostModel() CostModel {
	return CostModel{
		CPUFactor:     1,
		MemFactor:     1,
		AllocFactor:   1,
		IOReadFactor:  1,
		IOWriteFactor: 1,
		NetFactor:     1,
		LogFactor:     1,
		FileOpFactor:  1,
		CtxSwitchFac:  1,
		SpawnFactor:   1,
		JitterStd:     0.012,
	}
}

// factor returns the multiplier applied to counter c, defaulting to 1.
func (cm CostModel) factor(c meter.Counter) float64 {
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

// Apply prices usage u with base breakdown `base`, the draw from rng.
func (cm CostModel) Apply(u meter.Usage, base cpumodel.Breakdown, rng *rand.Rand) Charge {
	return cm.price(u, base, rng.NormFloat64())
}

// price is the one pricing function behind Apply and ModelGuest.Price:
// the noise-free charge of u, its total scaled by 1 + z·JitterStd.
func (cm CostModel) price(u meter.Usage, base cpumodel.Breakdown, z float64) Charge {
	var adj cpumodel.Breakdown
	for c := meter.Counter(1); int(c) < len(base); c++ {
		nd := time.Duration(float64(base[c]) * cm.factor(c))
		if nd > 0 {
			adj[c] = nd
		}
	}

	// World transitions forced by device/timer syscalls and by
	// scheduler sleep/wake events.
	exits := uint64(float64(u.Get(meter.Syscalls))*cm.ExitsPerSys) +
		uint64(float64(u.Get(meter.ContextSwitches))*cm.ExitsPerSwitch)
	if exitCost := time.Duration(float64(exits) * cm.ExitNs); exitCost > 0 {
		adj[meter.Syscalls] += exitCost
	}

	// Page-acceptance cost for first-touch faults.
	if faults := u.Get(meter.PageFaults); faults > 0 && cm.PageAcceptNs > 0 {
		adj[meter.PageFaults] += time.Duration(float64(faults) * cm.PageAcceptNs)
	}

	total := adj.Total()
	if cm.JitterStd > 0 && total > 0 {
		noise := 1 + z*cm.JitterStd
		// Clamp to ±4σ so a single draw cannot dominate a run.
		lo, hi := 1-4*cm.JitterStd, 1+4*cm.JitterStd
		noise = math.Max(lo, math.Min(hi, noise))
		if noise < 0.05 {
			noise = 0.05
		}
		total = time.Duration(float64(total) * noise)
	}

	return Charge{Breakdown: adj, Exits: exits, Total: total}
}

// BootCost returns the one-time launch overhead of the model.
func (cm CostModel) BootCost() time.Duration {
	return time.Duration(cm.StartupNs)
}

// SnapshotCost returns the one-time cost of capturing a guest memory
// image of the given page count (the backends' per-MiB boot-image
// granularity), charged on top of the full measured build.
func (cm CostModel) SnapshotCost(pages int) time.Duration {
	if pages < 0 {
		pages = 0
	}
	return time.Duration(cm.SnapshotPageNs * float64(pages))
}

// RestoreCost returns the boot cost of a guest rebuilt from a captured
// image: the fixed context-rebuild base plus the per-page replay
// charge. Restored guests report this as their BootCost in place of
// the full measured launch.
func (cm CostModel) RestoreCost(pages int) time.Duration {
	if pages < 0 {
		pages = 0
	}
	return time.Duration(cm.RestoreBaseNs + cm.RestorePageNs*float64(pages))
}

// draw is the pricing noise, a standard-normal function of (stream, key):
// two SplitMix64 finalisations give two uniforms, Box–Muller the draw.
func draw(stream uint64, key Key) float64 {
	h1 := mix64(stream ^ mix64(uint64(key)))
	h2 := mix64(h1 + 0x9E3779B97F4A7C15)
	u1 := (float64(h1>>11) + 1) / (1 << 53) // (0, 1], so the log is finite
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*float64(h2>>11)/(1<<53))
}

// mix64 is the SplitMix64 finaliser.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Key is what a priced sample measured, its jitter drawn under it: names
// (workload, language, row) and numbers (scale, trial, index) in order.
type Key uint64

// NewKey starts a key with a name.
func NewKey(name string) Key { return Key(14695981039346656037).Name(name) }

// Name folds a name into k: FNV-1a, then a terminator byte.
func (k Key) Name(s string) Key {
	for i := 0; i < len(s); i++ {
		k = (k ^ Key(s[i])) * 1099511628211
	}
	return (k ^ 0xFF) * 1099511628211
}

// Num folds a number into k.
func (k Key) Num(n uint64) Key { return Key(mix64(uint64(k)^n) + 0x9E3779B97F4A7C15) }

// NoiseStream names the noise of one side of a platform — a backend's
// seed, its label, secure or normal.
func NoiseStream(seed int64, label string, secure bool) uint64 {
	k := NewKey(label).Num(uint64(seed))
	if secure {
		k = k.Name("secure")
	}
	return uint64(k)
}
