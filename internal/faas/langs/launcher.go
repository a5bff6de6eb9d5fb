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

// Raw is one execution of a catalog workload on a fresh meter: its
// output and its usage before any runtime's weights. A runtime does not
// change what the workload computes, only what it costs, so one raw run
// of a (workload, scale) serves every language's launcher.
type Raw struct {
	Output string
	Usage  meter.Usage
}

// Amplifying is a launcher that runs a workload as a RuntimeLauncher's
// raw run and finish step: every RuntimeLauncher, and the Wasm launcher
// for the workloads without bytecode.
type Amplifying interface {
	// Amplifier returns the RuntimeLauncher whose Run and Finish make
	// up the launcher's Launch of workload, or false when it runs
	// workload some other way.
	Amplifier(workload string) (*RuntimeLauncher, bool)
}

var _ Amplifying = (*RuntimeLauncher)(nil)

// Amplifier implements Amplifying: a RuntimeLauncher amplifies every
// workload itself.
func (l *RuntimeLauncher) Amplifier(string) (*RuntimeLauncher, bool) { return l, true }

// Launch implements faas.Launcher: Finish of one Run.
func (l *RuntimeLauncher) Launch(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	raw, err := l.Run(ctx, fn, scale)
	if err != nil {
		return faas.LaunchResult{}, err
	}
	return l.Finish(raw), nil
}

// Run is Launch's first step: it runs fn's catalog workload at scale (0
// uses the workload's default) on a fresh meter. A canceled ctx aborts
// it before, and is re-checked after, the workload body runs.
func (l *RuntimeLauncher) Run(ctx context.Context, fn faas.Function, scale int) (Raw, error) {
	if err := ctx.Err(); err != nil {
		return Raw{}, err
	}
	if fn.Language != l.profile.Name {
		return Raw{}, fmt.Errorf("langs: launcher %q got %q function",
			l.profile.Name, fn.Language)
	}
	w, err := l.catalog.Lookup(fn.Workload)
	if err != nil {
		return Raw{}, err
	}
	if scale <= 0 {
		scale = w.DefaultScale
	}
	m := meter.NewContext()
	output, err := w.Run(m, scale)
	if err != nil {
		return Raw{}, fmt.Errorf("langs: run %s/%s: %w", fn.Language, fn.Workload, err)
	}
	if err := ctx.Err(); err != nil {
		return Raw{}, err
	}
	return Raw{Output: output, Usage: m.Snapshot()}, nil
}

// Finish is Launch's second step: it applies the runtime's weights to
// a raw run and adds the runtime's bootstrap.
func (l *RuntimeLauncher) Finish(raw Raw) faas.LaunchResult {
	return faas.LaunchResult{
		Output:         raw.Output,
		RunUsage:       Amplify(l.profile, raw.Usage),
		BootstrapUsage: BootstrapUsage(l.profile),
	}
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
