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
	invokes   atomic.Uint64 // InvokeFunction calls, a part of their keys
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
func (v *VM) price(u meter.Usage, key tee.Key) (tee.Charge, perfmon.Stats) {
	base := v.host.Cost(u)
	charge := v.guest.Price(u, base, key)
	return charge, v.monitor.Collect(u, charge, v.host)
}

// admit refuses new work on a canceled ctx or a stopped VM.
func (v *VM) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return cberr.From(err, cberr.LayerVM)
	}
	if v.stopped.Load() {
		return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerVM, ErrStopped)
	}
	return nil
}

// Execute is the first half of an invocation: it runs fn's body on the
// VM's launcher at the given scale (0 uses the workload's default) and
// returns the output and the metered usage, unpriced. Launchers are
// pure — same function and scale, same result — so an execution can be
// priced on any guest, in any order, after the fact. A canceled ctx
// aborts the launch and surfaces cberr.ErrCanceled.
func (v *VM) Execute(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	if err := v.admit(ctx); err != nil {
		return faas.LaunchResult{}, err
	}
	l, ok := v.launchers[fn.Language]
	if !ok {
		return faas.LaunchResult{}, cberr.Wrap(cberr.CodeInvalid, cberr.LayerVM,
			fmt.Errorf("%w: %q", ErrNoLauncher, fn.Language))
	}
	execCtx, execSpan := obs.StartSpan(ctx, "vm", "exec", fn.Name)
	lr, err := l.Launch(execCtx, fn, scale)
	execSpan.End()
	if err != nil {
		return faas.LaunchResult{}, cberr.From(err, cberr.LayerVM)
	}
	return lr, nil
}

// amplifier returns the RuntimeLauncher whose raw run and finish step
// make up v's launch of fn, or false when fn's launcher runs it some
// other way.
func (v *VM) amplifier(fn faas.Function) (*langs.RuntimeLauncher, bool) {
	a, ok := v.launchers[fn.Language].(langs.Amplifying)
	if !ok {
		return nil, false
	}
	return a.Amplifier(fn.Workload)
}

// Price is the second half: it charges an execution on this VM's guest,
// the run usage under key, what was measured, and the bootstrap usage
// under a key of its own.
func (v *VM) Price(ctx context.Context, lr faas.LaunchResult, key tee.Key) Result {
	_, priceSpan := obs.StartSpan(ctx, "tee", "price", string(v.Platform()))
	charge, perf := v.price(lr.RunUsage, key)
	bootCharge, _ := v.price(lr.BootstrapUsage, key.Name("bootstrap"))
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
	}
}

// InvokeFunction is the serving path: Execute, then Price on this one
// VM under (function, scale, the VM's invocation number).
func (v *VM) InvokeFunction(ctx context.Context, fn faas.Function, scale int) (Result, error) {
	lr, err := v.Execute(ctx, fn, scale)
	if err != nil {
		return Result{}, err
	}
	return v.Price(ctx, lr, tee.NewKey(fn.Name).Num(uint64(scale)).Num(v.invokes.Add(1))), nil
}

// AttestationReport proxies to the guest.
func (v *VM) AttestationReport(ctx context.Context, nonce []byte) ([]byte, error) {
	if err := v.admit(ctx); err != nil {
		return nil, err
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
	// Corpus holds the bodies already executed for every pair of the
	// cluster the pair came from (nil = none: every body executes).
	Corpus *Corpus
}

// NewPair launches a confidential and a normal VM on backend b with a
// shared workload catalog.
func NewPair(b tee.Backend, cfg tee.GuestConfig, catalog *workloads.Registry) (Pair, error) {
	secureGuest, err := b.Launch(cfg)
	if err != nil {
		return Pair{}, fmt.Errorf("vm: launch secure guest: %w", err)
	}
	return AssemblePair(b, cfg, catalog, secureGuest, func(g tee.Guest) { _ = g.Destroy() })
}

// AssemblePair launches a normal guest on b beside the confidential
// guest secure and wraps the two in VMs over catalog. When it fails it
// hands secure to release (NewPair destroys it; a warm pool takes it
// back) and destroys the normal guest, so the backend leaks neither.
func AssemblePair(b tee.Backend, cfg tee.GuestConfig, catalog *workloads.Registry, secure tee.Guest, release func(tee.Guest)) (Pair, error) {
	normalGuest, err := b.LaunchNormal(cfg)
	if err != nil {
		release(secure)
		return Pair{}, fmt.Errorf("vm: launch normal guest: %w", err)
	}
	fail := func(err error) (Pair, error) {
		release(secure)
		_ = normalGuest.Destroy()
		return Pair{}, err
	}
	secureVM, err := New(Config{Name: cfg.Name + "-secure", Guest: secure, Host: b.HostProfile(), Catalog: catalog})
	if err != nil {
		return fail(err)
	}
	normalVM, err := New(Config{Name: cfg.Name + "-normal", Guest: normalGuest, Host: b.HostProfile(), Catalog: catalog})
	if err != nil {
		return fail(err)
	}
	return Pair{Secure: secureVM, Normal: normalVM}, nil
}

// admit refuses new work for the pair on a canceled ctx or when either
// VM is stopped.
func (p Pair) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return cberr.From(err, cberr.LayerVM)
	}
	if p.Secure.stopped.Load() || p.Normal.stopped.Load() {
		return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerVM, ErrStopped)
	}
	return nil
}

// cellKey names a FaaS cell in a corpus: launchers are pure, so the
// language, the workload and the scale fix what an execution returns.
type cellKey struct {
	language, workload string
	scale              int
}

// rawKey names a raw run of a catalog workload in a corpus: a runtime
// amplifies the usage of what the workload computes and does not change
// it, so the workload and the scale fix the raw run for every language.
type rawKey struct {
	workload string
	scale    int
}

// Execute runs fn's body once for the pair, or once for every pair
// sharing its corpus. Both VMs carry the same launcher set (Fig. 2), so
// the secure VM's stands for both; a stopped VM on either side refuses.
// When that launcher amplifies a raw run of fn's workload, the raw run
// is what executes, once for every language, and the launcher's finish
// step weighs it for fn's language.
func (p Pair) Execute(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	amp, ok := p.Secure.amplifier(fn)
	if !ok {
		return Shared(ctx, p, cellKey{fn.Language, fn.Workload, scale}, func(ctx context.Context) (faas.LaunchResult, error) {
			return p.Secure.Execute(ctx, fn, scale)
		})
	}
	raw, err := Shared(ctx, p, rawKey{fn.Workload, scale}, func(ctx context.Context) (langs.Raw, error) {
		execCtx, execSpan := obs.StartSpan(ctx, "vm", "exec", fn.Name)
		raw, err := amp.Run(execCtx, fn, scale)
		execSpan.End()
		return raw, cberr.From(err, cberr.LayerVM)
	})
	if err != nil {
		return faas.LaunchResult{}, err
	}
	return amp.Finish(raw), nil
}

// RunMetered is Execute for ConfBench's "classic workloads" (ML
// inference, DBMS, OS benchmarks), where the user ships a
// cross-compiled executable instead of a function: task runs once
// against a fresh meter and its usage comes back unpriced, with no
// bootstrap share. The ctx is handed to the task so long-running
// workloads can observe cancellation.
func (p Pair) RunMetered(ctx context.Context, name string, task func(ctx context.Context, m *meter.Context) (string, error)) (faas.LaunchResult, error) {
	if err := p.admit(ctx); err != nil {
		return faas.LaunchResult{}, err
	}
	mctx := meter.NewContext()
	output, err := task(ctx, mctx)
	if err != nil {
		return faas.LaunchResult{}, cberr.From(fmt.Errorf("vm: run %s: %w", name, err), cberr.LayerVM)
	}
	return faas.LaunchResult{Output: output, RunUsage: mctx.Snapshot()}, nil
}

// Price charges one execution on the secure and the normal guest under
// one key: the paper's protocol — same work, both VMs of a host.
func (p Pair) Price(ctx context.Context, lr faas.LaunchResult, key tee.Key) (secure, normal Result) {
	return p.Secure.Price(ctx, lr, key), p.Normal.Price(ctx, lr, key)
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
