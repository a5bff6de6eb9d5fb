package langs

import (
	"context"
	"fmt"

	"confbench/internal/faas"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

// RuntimeLauncher executes functions under a managed-runtime profile:
// the catalog workload runs for real in Go, and the recorded usage is
// amplified by the runtime's weights.
type RuntimeLauncher struct {
	profile  Profile
	platform tee.Kind
	catalog  *workloads.Registry
}

var _ faas.Launcher = (*RuntimeLauncher)(nil)

// NewRuntimeLauncher builds a launcher for lang on platform.
func NewRuntimeLauncher(lang string, platform tee.Kind, catalog *workloads.Registry) (*RuntimeLauncher, error) {
	p, err := ProfileFor(lang)
	if err != nil {
		return nil, err
	}
	if catalog == nil {
		catalog = workloads.Default()
	}
	return &RuntimeLauncher{profile: p, platform: platform, catalog: catalog}, nil
}

// Language implements faas.Launcher.
func (l *RuntimeLauncher) Language() string { return l.profile.Name }

// Version implements faas.Launcher.
func (l *RuntimeLauncher) Version() string { return l.profile.Version(l.platform) }

// Launch implements faas.Launcher.
func (l *RuntimeLauncher) Launch(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	if err := ctx.Err(); err != nil {
		return faas.LaunchResult{}, err
	}
	if fn.Language != l.profile.Name {
		return faas.LaunchResult{}, fmt.Errorf("langs: launcher %q got %q function",
			l.profile.Name, fn.Language)
	}
	w, err := l.catalog.Lookup(fn.Workload)
	if err != nil {
		return faas.LaunchResult{}, err
	}
	if scale <= 0 {
		scale = w.DefaultScale
	}
	raw := meter.NewContext()
	output, err := w.Run(raw, scale)
	if err != nil {
		return faas.LaunchResult{}, fmt.Errorf("langs: run %s/%s: %w", fn.Language, fn.Workload, err)
	}
	if err := ctx.Err(); err != nil {
		return faas.LaunchResult{}, err
	}
	return faas.LaunchResult{
		Output:         output,
		RunUsage:       Amplify(l.profile, raw.Snapshot()),
		BootstrapUsage: BootstrapUsage(l.profile),
	}, nil
}

// Amplify applies a runtime profile's weights to raw workload usage.
func Amplify(p Profile, u meter.Usage) meter.Usage {
	out := u
	cpu := u.Get(meter.CPUOps)
	fp := u.Get(meter.FPOps)
	alloc := u.Get(meter.BytesAllocated)

	out[meter.CPUOps] = scaleU64(cpu, p.InterpFactor)
	out[meter.FPOps] = scaleU64(fp, p.FPFactor)
	allocAmp := scaleU64(alloc, p.AllocFactor) + scaleU64(cpu+fp, p.AllocPerOp)
	out[meter.BytesAllocated] = allocAmp
	// Boxed-object churn allocates beyond the heap's reuse high-water
	// mark on a share of pages, which fault in fresh (and, inside a
	// confidential VM, must be accepted/validated).
	const freshPageShare = 0.35
	out[meter.PageFaults] = u.Get(meter.PageFaults) +
		uint64(float64(scaleU64(cpu+fp, p.AllocPerOp))/4096*freshPageShare)

	touch := u.Get(meter.BytesTouched)
	touch += scaleU64(cpu+fp, p.TouchPerOp) // dispatch + boxed operand traffic
	touch += scaleU64(allocAmp, p.GCShare)  // GC mark/sweep traffic
	// A warm runtime re-touches a small share of its resident working
	// set per invocation (dispatch tables, inline caches); first-touch
	// faulting happens at bootstrap, not here.
	touch += uint64(float64(p.WorkingSetMB) * (1 << 20) * p.ResidencyTouch)
	out[meter.BytesTouched] = touch

	out[meter.Syscalls] = scaleU64(u.Get(meter.Syscalls), p.SyscallAmp)
	return out
}

// BootstrapUsage models runtime startup: loading the interpreter
// image and heap-initializing the working set. It is reported but —
// per §IV-D — excluded from execution-time measurements.
func BootstrapUsage(p Profile) meter.Usage {
	ws := uint64(p.WorkingSetMB) << 20
	return meter.Usage{
		meter.CPUOps:         uint64(p.StartupNs * 2.5),
		meter.BytesAllocated: ws,
		meter.BytesTouched:   ws,
		meter.PageFaults:     ws / 4096,
		meter.Syscalls:       200,
	}
}

func scaleU64(v uint64, f float64) uint64 {
	if f <= 0 {
		return 0
	}
	return uint64(float64(v) * f)
}

// NewAllLaunchers builds one launcher per supported language for the
// given platform, keyed by language. Wasm gets the bytecode-executing
// launcher; every other language gets a RuntimeLauncher.
func NewAllLaunchers(platform tee.Kind, catalog *workloads.Registry) (map[string]faas.Launcher, error) {
	if catalog == nil {
		catalog = workloads.Default()
	}
	out := make(map[string]faas.Launcher, 7)
	for _, lang := range Names() {
		if lang == LangWasm {
			wl, err := NewWasmLauncher(platform, catalog)
			if err != nil {
				return nil, err
			}
			out[lang] = wl
			continue
		}
		rl, err := NewRuntimeLauncher(lang, platform, catalog)
		if err != nil {
			return nil, err
		}
		out[lang] = rl
	}
	return out, nil
}
