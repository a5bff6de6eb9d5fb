// Package vm provides ConfBench's virtual-machine execution context:
// a booted guest (confidential or normal) with its language launchers
// and performance monitor, able to execute FaaS functions and classic
// metered workloads and to return priced results.
//
// In the paper's architecture (Fig. 2) every VM on a host exposes the
// same file locations, interpreters and launchers so execution setups
// stay consistent across VMs; here that uniformity is captured by
// giving each VM the same launcher set, differing only in the TEE
// guest backing it.
package vm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"confbench/internal/cberr"
	"confbench/internal/cpumodel"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

// Errors returned by VM operations.
var (
	ErrNoLauncher = errors.New("vm: no launcher for language")
	ErrStopped    = errors.New("vm: stopped")
)

// Result reports one execution inside a VM.
type Result struct {
	// Output is the workload's textual result.
	Output string `json:"output"`
	// Wall is the priced wall-clock execution time (excluding runtime
	// bootstrap, per §IV-D).
	Wall time.Duration `json:"wall"`
	// Bootstrap is the priced runtime startup time (reported
	// separately).
	Bootstrap time.Duration `json:"bootstrap"`
	// Usage is the (possibly runtime-amplified) metered usage.
	Usage meter.Usage `json:"-"`
	// Perf is the perf-stat (or CCA script) metric set.
	Perf perfmon.Stats `json:"perf"`
	// Secure reports whether the VM was confidential.
	Secure bool `json:"secure"`
	// Platform is the VM's TEE kind.
	Platform tee.Kind `json:"platform"`
}

// VM is one running guest with its execution environment.
type VM struct {
	name      string
	guest     tee.Guest
	host      cpumodel.Profile
	launchers map[string]faas.Launcher
	monitor   perfmon.Monitor
	stopped   atomic.Bool
}

// Config assembles a VM.
type Config struct {
	// Name labels the VM.
	Name string
	// Guest is the booted TEE (or plain) guest context.
	Guest tee.Guest
	// Host is the machine profile of the hosting hardware.
	Host cpumodel.Profile
	// Launchers maps language → launcher; when nil, the full default
	// set is installed.
	Launchers map[string]faas.Launcher
	// Catalog backs the default launchers (nil = default catalog).
	Catalog *workloads.Registry
}

// New boots a VM execution context around an existing guest.
func New(cfg Config) (*VM, error) {
	if cfg.Guest == nil {
		return nil, errors.New("vm: nil guest")
	}
	if err := cfg.Host.Validate(); err != nil {
		return nil, err
	}
	launchers := cfg.Launchers
	if launchers == nil {
		var err error
		launchers, err = langs.NewAllLaunchers(cfg.Guest.Kind(), cfg.Catalog)
		if err != nil {
			return nil, err
		}
	}
	name := cfg.Name
	if name == "" {
		name = cfg.Guest.ID()
	}
	return &VM{
		name:      name,
		guest:     cfg.Guest,
		host:      cfg.Host,
		launchers: launchers,
		monitor:   perfmon.Select(cfg.Guest.Kind()),
	}, nil
}

// Name returns the VM label.
func (v *VM) Name() string { return v.name }

// Guest returns the backing guest.
func (v *VM) Guest() tee.Guest { return v.guest }

// Secure reports whether the VM is confidential.
func (v *VM) Secure() bool { return v.guest.Secure() }

// Platform returns the VM's TEE kind.
func (v *VM) Platform() tee.Kind { return v.guest.Kind() }

// Monitor returns the active performance monitor.
func (v *VM) Monitor() perfmon.Monitor { return v.monitor }

// Languages lists the installed launcher languages.
func (v *VM) Languages() []string {
	out := make([]string, 0, len(v.launchers))
	for l := range v.launchers {
		out = append(out, l)
	}
	return out
}

// price converts usage into a perf-stat result under this VM's host
// profile and TEE charge model.
func (v *VM) price(u meter.Usage) (tee.Charge, perfmon.Stats) {
	base := v.host.Cost(u)
	charge := v.guest.Price(u, base)
	return charge, v.monitor.Collect(u, charge, v.host)
}

// PriceUsage returns the wall-clock cost of the given usage inside
// this VM. Benchmark suites that need per-test durations (UnixBench's
// index scores) use this as their pricing function.
func (v *VM) PriceUsage(u meter.Usage) time.Duration {
	charge, _ := v.price(u)
	return charge.Total
}

// InvokeFunction executes a FaaS function at the given scale (0 uses
// the workload's default). A canceled ctx aborts the invocation and
// surfaces cberr.ErrCanceled.
func (v *VM) InvokeFunction(ctx context.Context, fn faas.Function, scale int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, cberr.From(err, cberr.LayerVM)
	}
	if v.stopped.Load() {
		return Result{}, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerVM, ErrStopped)
	}
	l, ok := v.launchers[fn.Language]
	if !ok {
		return Result{}, cberr.Wrap(cberr.CodeInvalid, cberr.LayerVM,
			fmt.Errorf("%w: %q", ErrNoLauncher, fn.Language))
	}
	execCtx, execSpan := obs.StartSpan(ctx, "vm", "exec", fn.Name)
	lr, err := l.Launch(execCtx, fn, scale)
	execSpan.End()
	if err != nil {
		return Result{}, cberr.From(err, cberr.LayerVM)
	}
	_, priceSpan := obs.StartSpan(ctx, "tee", "price", string(v.Platform()))
	charge, perf := v.price(lr.RunUsage)
	bootCharge, _ := v.price(lr.BootstrapUsage)
	priceSpan.SetAttrInt("exits", int64(charge.Exits))
	priceSpan.SetAttrInt("wall_ns", charge.Total.Nanoseconds())
	if charge.Fault != "" {
		priceSpan.SetAttr("faultplane", charge.Fault)
		priceSpan.SetAttrInt("fault_delay_ns", charge.FaultDelay.Nanoseconds())
	}
	priceSpan.End()
	return Result{
		Output:    lr.Output,
		Wall:      charge.Total,
		Bootstrap: bootCharge.Total,
		Usage:     lr.RunUsage,
		Perf:      perf,
		Secure:    v.Secure(),
		Platform:  v.Platform(),
	}, nil
}

// RunMetered executes an arbitrary metered task inside the VM —
// ConfBench's "classic workloads" path (ML inference, DBMS, OS
// benchmarks), where the user ships a cross-compiled executable. The
// ctx is handed to the task so long-running workloads can observe
// cancellation.
func (v *VM) RunMetered(ctx context.Context, name string, task func(ctx context.Context, m *meter.Context) (string, error)) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, cberr.From(err, cberr.LayerVM)
	}
	if v.stopped.Load() {
		return Result{}, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerVM, ErrStopped)
	}
	mctx := meter.NewContext()
	output, err := task(ctx, mctx)
	if err != nil {
		return Result{}, cberr.From(fmt.Errorf("vm: run %s: %w", name, err), cberr.LayerVM)
	}
	usage := mctx.Snapshot()
	charge, perf := v.price(usage)
	return Result{
		Output:   output,
		Wall:     charge.Total,
		Usage:    usage,
		Perf:     perf,
		Secure:   v.Secure(),
		Platform: v.Platform(),
	}, nil
}

// AttestationReport proxies to the guest.
func (v *VM) AttestationReport(ctx context.Context, nonce []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, cberr.From(err, cberr.LayerVM)
	}
	if v.stopped.Load() {
		return nil, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerVM, ErrStopped)
	}
	report, err := v.guest.AttestationReport(ctx, nonce)
	if err != nil {
		return nil, cberr.From(err, cberr.LayerVM)
	}
	return report, nil
}

// Stop destroys the backing guest. Stop is idempotent.
func (v *VM) Stop() error {
	if v.stopped.Swap(true) {
		return nil
	}
	return v.guest.Destroy()
}

// Pair is the secure/normal VM couple the paper creates on every host
// ("In each host we created two VMs: a VM with TEE-backed security
// guarantees and a 'normal' VM").
type Pair struct {
	Secure *VM
	Normal *VM
}

// NewPair launches a confidential and a normal VM on backend b with a
// shared workload catalog.
func NewPair(b tee.Backend, cfg tee.GuestConfig, catalog *workloads.Registry) (Pair, error) {
	secureGuest, err := b.Launch(cfg)
	if err != nil {
		return Pair{}, fmt.Errorf("vm: launch secure guest: %w", err)
	}
	normalGuest, err := b.LaunchNormal(cfg)
	if err != nil {
		// Launch succeeded but its pair failed; tear the secure guest
		// down so the backend doesn't leak it.
		_ = secureGuest.Destroy()
		return Pair{}, fmt.Errorf("vm: launch normal guest: %w", err)
	}
	secureVM, err := New(Config{Name: cfg.Name + "-secure", Guest: secureGuest, Host: b.HostProfile(), Catalog: catalog})
	if err != nil {
		_ = secureGuest.Destroy()
		_ = normalGuest.Destroy()
		return Pair{}, err
	}
	normalVM, err := New(Config{Name: cfg.Name + "-normal", Guest: normalGuest, Host: b.HostProfile(), Catalog: catalog})
	if err != nil {
		_ = secureVM.Stop()
		_ = normalGuest.Destroy()
		return Pair{}, err
	}
	return Pair{Secure: secureVM, Normal: normalVM}, nil
}

// Stop tears both VMs down, aggregating every teardown error.
func (p Pair) Stop() error {
	var errs []error
	if p.Secure != nil {
		errs = append(errs, p.Secure.Stop())
	}
	if p.Normal != nil {
		errs = append(errs, p.Normal.Stop())
	}
	return errors.Join(errs...)
}
