package langs

import (
	"context"
	"fmt"
	"sync"

	"confbench/internal/faas"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/wasmvm"
	"confbench/internal/workloads"
)

// wasmMapping describes how one catalog workload maps onto an export
// of the Wasm bench module.
type wasmMapping struct {
	export string
	// arg converts the catalog scale into the export's argument.
	arg func(scale int) int64
}

// wasmMappings lists the workloads with a real bytecode
// implementation. The paper took most Wasm benchmarks from the Wasmi
// suite and "extended this WASM benchmark suite with cpustress and
// memstress"; the remaining catalog workloads fall back to the
// profile-amplified path like the other interpreters.
func wasmMappings() map[string]wasmMapping {
	const memLimit = wasmvm.BenchMemPages * wasmvm.PageSize
	return map[string]wasmMapping{
		"cpustress": {export: "cpustress", arg: func(s int) int64 { return int64(s) }},
		"memstress": {export: "memstress", arg: func(s int) int64 {
			bytes := int64(s) << 20
			if bytes > memLimit {
				bytes = memLimit
			}
			return bytes
		}},
		"fib": {export: "fib", arg: func(s int) int64 {
			if s > 27 {
				s = 27 // keep interpreted recursion tractable
			}
			return int64(s)
		}},
		"primes": {export: "sieve", arg: func(s int) int64 {
			if s > memLimit-8 {
				s = memLimit - 8
			}
			return int64(s)
		}},
		"matrix": {export: "matmul", arg: func(s int) int64 {
			if s > 120 {
				s = 120 // 3·n²·8 must fit the linear memory
			}
			return int64(s)
		}},
	}
}

// benchModule builds the Wasm bench module once per process. Every
// launcher shares it read-only: an Instance reads the module's code
// and keeps its own memory and dispatch tables.
var benchModule = sync.OnceValues(wasmvm.BuildBenchModule)

// WasmLauncher executes functions on the internal Wasm VM when a
// bytecode implementation exists, and falls back to profile
// amplification otherwise.
type WasmLauncher struct {
	profile  Profile
	platform tee.Kind
	fallback *RuntimeLauncher
	mappings map[string]wasmMapping

	mu       sync.Mutex
	instance *wasmvm.Instance
}

var _ faas.Launcher = (*WasmLauncher)(nil)

// NewWasmLauncher builds the Wasm launcher for platform.
func NewWasmLauncher(platform tee.Kind, catalog *workloads.Registry) (*WasmLauncher, error) {
	p, err := ProfileFor(LangWasm)
	if err != nil {
		return nil, err
	}
	fb, err := NewRuntimeLauncher(LangWasm, platform, catalog)
	if err != nil {
		return nil, err
	}
	mod, err := benchModule()
	if err != nil {
		return nil, fmt.Errorf("langs: build wasm bench module: %w", err)
	}
	inst, err := wasmvm.NewInstance(mod)
	if err != nil {
		return nil, fmt.Errorf("langs: instantiate wasm module: %w", err)
	}
	return &WasmLauncher{
		profile:  p,
		platform: platform,
		fallback: fb,
		mappings: wasmMappings(),
		instance: inst,
	}, nil
}

// Language implements faas.Launcher.
func (l *WasmLauncher) Language() string { return LangWasm }

// Version implements faas.Launcher.
func (l *WasmLauncher) Version() string { return l.profile.Version(l.platform) }

// HasBytecode reports whether workload runs as real bytecode.
func (l *WasmLauncher) HasBytecode(workload string) bool {
	_, ok := l.mappings[workload]
	return ok
}

var _ Amplifying = (*WasmLauncher)(nil)

// Amplifier implements Amplifying: a workload without bytecode runs on
// the fallback RuntimeLauncher.
func (l *WasmLauncher) Amplifier(workload string) (*RuntimeLauncher, bool) {
	if l.HasBytecode(workload) {
		return nil, false
	}
	return l.fallback, true
}

// Launch implements faas.Launcher.
func (l *WasmLauncher) Launch(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	if err := ctx.Err(); err != nil {
		return faas.LaunchResult{}, err
	}
	if fn.Language != LangWasm {
		return faas.LaunchResult{}, fmt.Errorf("langs: wasm launcher got %q function", fn.Language)
	}
	mapping, ok := l.mappings[fn.Workload]
	if !ok {
		return l.fallback.Launch(ctx, fn, scale)
	}
	if scale <= 0 {
		if w, err := l.fallback.catalog.Lookup(fn.Workload); err == nil {
			scale = w.DefaultScale
		} else {
			scale = 1
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.instance.ResetStats()
	l.instance.Fuel = wasmvm.DefaultFuel
	res, err := l.instance.Invoke(mapping.export, mapping.arg(scale))
	if err != nil {
		return faas.LaunchResult{}, fmt.Errorf("langs: wasm %s: %w", mapping.export, err)
	}
	if err := ctx.Err(); err != nil {
		return faas.LaunchResult{}, err
	}
	stats := l.instance.Stats()

	usage := meter.Usage{
		// Each retired bytecode instruction costs a dispatch plus an
		// execute step in the interpreter loop.
		meter.CPUOps: stats.Instructions * 4,
		// Operand-stack traffic plus explicit linear-memory traffic.
		meter.BytesTouched: stats.MemBytes + stats.Instructions*8,
	}
	return faas.LaunchResult{
		Output:         fmt.Sprintf("%s(%d) = %d", mapping.export, mapping.arg(scale), first(res)),
		RunUsage:       usage,
		BootstrapUsage: BootstrapUsage(l.profile),
	}, nil
}

func first(res []int64) int64 {
	if len(res) == 0 {
		return 0
	}
	return res[0]
}
