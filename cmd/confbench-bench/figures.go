package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"confbench"
	"confbench/internal/attest"
	"confbench/internal/attest/dcap"
	"confbench/internal/bench"
	"confbench/internal/tee"
	"confbench/internal/tee/container"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

// env is what a figure runs against: the protocol knobs, the report
// -json writes, and the shared single-host deployment, booted the first
// time a figure asks for it.
type env struct {
	trials, scaleDiv, dbSize, images, workers int
	seed                                      int64
	transport, durableDir                     string
	report                                    bench.Report
	cluster                                   *confbench.Cluster
}

func (e *env) deployment() (*confbench.Cluster, error) {
	if e.cluster != nil {
		return e.cluster, nil
	}
	var err error
	e.cluster, err = confbench.New(confbench.WithSeed(e.seed), confbench.WithGuestMemoryMB(16),
		confbench.WithWorkers(e.workers), confbench.WithTransport(e.transport), confbench.WithDurableDir(e.durableDir))
	return e.cluster, err
}

// figure is one row of the -fig table. A row with one is measured once
// per platform of the shared deployment (kinds, or every deployed one)
// into e.report; show then renders what to print. A row without boots a
// topology of its own inside show.
type figure struct {
	name  string
	inAll bool
	kinds []tee.Kind
	one   func(ctx context.Context, e *env, kind tee.Kind, pair vm.Pair) error
	show  func(ctx context.Context, e *env) (string, error)
}

func (f figure) run(ctx context.Context, e *env) error {
	if f.one != nil {
		c, err := e.deployment()
		if err != nil {
			return err
		}
		kinds := f.kinds
		if kinds == nil {
			kinds = c.Kinds()
		}
		for _, kind := range kinds {
			pair, err := c.Pair(kind)
			if err == nil {
				err = f.one(ctx, e, kind, pair)
			}
			if err != nil {
				return fmt.Errorf("fig %s (%s): %w", f.name, kind, err)
			}
		}
	}
	if f.show == nil {
		return nil
	}
	out, err := f.show(ctx, e)
	fmt.Println(out)
	return err
}

// heatmap measures one platform's FaaS grid over ws (none: the whole
// catalog) with trials per cell (0: -trials) into e.report.FaaS.
func heatmap(trials int, ws ...string) func(context.Context, *env, tee.Kind, vm.Pair) error {
	return func(ctx context.Context, e *env, _ tee.Kind, pair vm.Pair) error {
		res, err := bench.FaaS(ctx, pair, e.cluster.Catalog(), bench.FaaSOptions{Workloads: ws, Options: bench.Options{
			Trials: cmp.Or(trials, e.trials), ScaleDivisor: e.scaleDiv, Workers: e.workers, Obs: e.cluster.Obs()}})
		e.report.FaaS = append(e.report.FaaS, res)
		return err
	}
}

// showHeatmaps renders the last n FaaS grids, the ones the row measured.
func showHeatmaps(n int) func(context.Context, *env) (string, error) {
	return func(_ context.Context, e *env) (string, error) {
		var out []string
		for _, res := range e.report.FaaS[len(e.report.FaaS)-n:] {
			out = append(out, bench.RenderHeatmap(res))
		}
		return strings.Join(out, "\n"), nil
	}
}

// variantRow is a row that measures workload/go with the secure VM of a
// variant backend as Secure and the deployment's TDX confidential VM as
// Normal: one body execution, priced on both under one key per trial
// (DESIGN.md §15).
func variantRow(name, title, workload string, into func(*bench.Report) *[]bench.FaaSResult,
	backend func(e *env) (tee.Backend, error)) figure {
	return figure{name: name, kinds: []tee.Kind{tee.KindTDX},
		one: func(ctx context.Context, e *env, _ tee.Kind, pair vm.Pair) error {
			b, err := backend(e)
			if err != nil {
				return err
			}
			variant, err := vm.NewPair(b, tee.GuestConfig{Name: name, MemoryMB: 16}, e.cluster.Catalog())
			if err != nil {
				return err
			}
			res, err := bench.FaaS(ctx, vm.Pair{Secure: variant.Secure, Normal: pair.Secure}, e.cluster.Catalog(), bench.FaaSOptions{
				Options:   bench.Options{Trials: e.trials, ScaleDivisor: e.scaleDiv, Workers: e.workers},
				Workloads: []string{workload}, Languages: []string{"go"},
			})
			*into(&e.report) = append(*into(&e.report), res)
			return errors.Join(err, variant.Stop())
		},
		show: func(_ context.Context, e *env) (string, error) {
			return title + "\n" + bench.RenderHeatmap((*into(&e.report))[0]), nil
		}}
}

// figures is the -fig table, in the order "all" runs it. storage doubles
// the speedtest work, migration and coldstart boot topologies of their
// own, trace prints span trees, and firmware, collateral and containers
// go beyond the paper's figures, so "all" leaves them out.
var figures = []figure{
	{name: "3", inAll: true,
		one: func(ctx context.Context, e *env, _ tee.Kind, pair vm.Pair) error {
			res, err := bench.ML(ctx, pair, bench.MLOptions{Images: e.images, Workers: e.workers, Obs: e.cluster.Obs()})
			e.report.ML = append(e.report.ML, res)
			return err
		},
		show: func(_ context.Context, e *env) (string, error) { return bench.RenderML(e.report.ML), nil }},
	{name: "dbms", inAll: true,
		one: func(ctx context.Context, e *env, _ tee.Kind, pair vm.Pair) error {
			res, err := bench.DBMS(ctx, pair, bench.DBMSOptions{Size: e.dbSize})
			e.report.DBMS = append(e.report.DBMS, res)
			return err
		},
		show: func(_ context.Context, e *env) (string, error) { return bench.RenderDBMS(e.report.DBMS), nil }},
	{name: "storage",
		one: func(ctx context.Context, e *env, _ tee.Kind, pair vm.Pair) error {
			res, err := bench.DBMSStorage(ctx, pair, bench.DBMSStorageOptions{Size: e.dbSize, Dir: e.durableDir})
			e.report.Storage = append(e.report.Storage, res)
			return err
		},
		show: func(_ context.Context, e *env) (string, error) { return bench.RenderDBMSStorage(e.report.Storage), nil }},
	{name: "4", inAll: true,
		one: func(ctx context.Context, e *env, _ tee.Kind, pair vm.Pair) error {
			res, err := bench.UnixBench(ctx, pair, bench.UnixBenchOptions{Scale: 1.0 / float64(e.scaleDiv)})
			e.report.UnixBench = append(e.report.UnixBench, res)
			return err
		},
		show: func(_ context.Context, e *env) (string, error) { return bench.RenderUnixBench(e.report.UnixBench), nil }},
	{name: "5", inAll: true, kinds: bench.KindsTDXSEV,
		one: func(ctx context.Context, e *env, kind tee.Kind, _ vm.Pair) error {
			stack := e.cluster.TDXAttestation
			if kind == tee.KindSEV {
				stack = e.cluster.SEVAttestation
			}
			attester, verifier, err := stack()
			if err != nil {
				return err
			}
			res, err := bench.Attestation(ctx, kind, attester, verifier, e.trials)
			e.report.Attestation = append(e.report.Attestation, res)
			return err
		},
		show: func(_ context.Context, e *env) (string, error) {
			return bench.RenderAttestation(e.report.Attestation), nil
		}},
	{name: "6", inAll: true, kinds: bench.KindsTDXSEV, one: heatmap(0), show: showHeatmaps(2)},
	{name: "7", inAll: true, kinds: []tee.Kind{tee.KindCCA}, one: heatmap(0), show: showHeatmaps(1)},
	{name: "8", inAll: true, kinds: []tee.Kind{tee.KindCCA},
		one: heatmap(10, "cpustress", "memstress", "iostress", "logging", "factors", "filesystem"),
		show: func(_ context.Context, e *env) (string, error) {
			res := e.report.FaaS[len(e.report.FaaS)-1]
			rendered := make([]string, len(res.Languages))
			for i, lang := range res.Languages {
				var err error
				if rendered[i], err = bench.RenderBoxPlots(res, lang); err != nil {
					return "", err
				}
			}
			return strings.Join(rendered, "\n"), nil
		}},
	{name: "colocation", inAll: true,
		one: func(ctx context.Context, e *env, kind tee.Kind, _ vm.Pair) error {
			backend, err := e.cluster.Backend(kind)
			if err != nil {
				return err
			}
			res, err := bench.CoLocation(ctx, backend, e.cluster.Catalog(), bench.CoLocationOptions{Tenants: 4, Trials: e.trials})
			e.report.CoLocation = append(e.report.CoLocation, res)
			return err
		},
		show: func(_ context.Context, e *env) (string, error) {
			rendered := make([]string, len(e.report.CoLocation))
			for i, res := range e.report.CoLocation {
				rendered[i] = bench.RenderCoLocation(res)
			}
			return strings.Join(rendered, "\n"), nil
		}},
	{name: "migration", show: func(ctx context.Context, e *env) (string, error) {
		out, _, err := migrationReport(ctx, e.seed, 16)
		return strings.TrimSuffix(out, "\n"), err
	}},
	{name: "coldstart", show: func(ctx context.Context, e *env) (string, error) {
		out, _, err := coldstartReport(ctx, e.seed, 16)
		return strings.TrimSuffix(out, "\n"), err
	}},
	{name: "trace", show: func(ctx context.Context, e *env) (string, error) {
		c, err := e.deployment()
		if err != nil {
			return "", err
		}
		out, err := runTrace(ctx, c, e.scaleDiv)
		if err != nil {
			return "", fmt.Errorf("trace: %w", err)
		}
		return strings.TrimSuffix(out, "\n"), nil
	}},
	variantRow("firmware", "§III-B firmware — secure: a TDX guest on module "+tdx.BuggyFirmware+
		", normal: the TDX confidential VM on "+tdx.CurrentFirmware, "cpustress",
		func(r *bench.Report) *[]bench.FaaSResult { return &r.Firmware },
		func(e *env) (tee.Backend, error) {
			return tdx.NewBackend(tdx.Options{FirmwareVersion: tdx.BuggyFirmware, Seed: e.seed})
		}),
	{name: "collateral", kinds: []tee.Kind{tee.KindTDX},
		one: func(ctx context.Context, e *env, kind tee.Kind, _ vm.Pair) error {
			attester, cold, err := e.cluster.TDXAttestation()
			if err != nil {
				return err
			}
			cached := dcap.NewVerifier(e.cluster.PCS())
			cached.CacheCollateral = true
			for _, verifier := range []attest.Verifier{cold, cached} {
				res, err := bench.Attestation(ctx, kind, attester, verifier, e.trials)
				if err != nil {
					return err
				}
				e.report.Collateral = append(e.report.Collateral, res)
			}
			return nil
		},
		show: func(_ context.Context, e *env) (string, error) {
			cold, cached := e.report.Collateral[0].CheckMs, e.report.Collateral[1].CheckMs
			return fmt.Sprintf("Collateral cache — TDX check phase, mean of %d trials (ms)\n  cold   %10.2f\n  cached %10.2f\n",
				cold.N, cold.Mean, cached.Mean), nil
		}},
	variantRow("containers", "§V confidential containers — secure: a container in a TDX pod VM, normal: the TDX confidential VM", "iostress",
		func(r *bench.Report) *[]bench.FaaSResult { return &r.Containers },
		func(e *env) (tee.Backend, error) {
			inner, err := e.cluster.Backend(tee.KindTDX)
			if err != nil {
				return nil, err
			}
			return container.NewBackend(inner)
		}),
}

// figureNames lists what -fig accepts, generated from the table.
func figureNames() string {
	names, extra := []string{"all", "none"}, []string(nil)
	for _, f := range figures {
		names = append(names, f.name)
		if !f.inAll {
			extra = append(extra, f.name)
		}
	}
	return fmt.Sprintf("%s (%s are not part of all)", strings.Join(names, ", "), strings.Join(extra, ", "))
}

// lookupFigures resolves a -fig value to the rows it runs.
func lookupFigures(name string) ([]figure, error) {
	var rows []figure
	for _, f := range figures {
		if f.name == name || (name == "all" && f.inAll) {
			rows = append(rows, f)
		}
	}
	if len(rows) == 0 && name != "none" {
		return nil, fmt.Errorf("unknown figure %q: want one of %s", name, figureNames())
	}
	return rows, nil
}

// warmBed boots the warm-pooled topology the coldstart and migration
// figures measure, on a registry of its own, and uploads the figure's
// one function. High watermark 2 / low watermark 1: acquiring one guest
// per host leaves idle exactly at the low watermark, so no background
// refill fires and the run stays deterministic.
func warmBed(ctx context.Context, seed int64, memMB, hosts int, fn string) (*confbench.Cluster, error) {
	cluster, err := confbench.New(confbench.WithSeed(seed), confbench.WithGuestMemoryMB(memMB),
		confbench.WithWarmPool(2), confbench.WithHostsPerTEE(hosts),
		confbench.WithObsRegistry(confbench.NewObsRegistry()))
	if err != nil {
		return nil, err
	}
	err = cluster.Client().Upload(ctx, confbench.Function{Name: fn, Language: "go", Workload: "cpustress"})
	if err != nil {
		return nil, errors.Join(err, cluster.Close())
	}
	return cluster, nil
}

// coldProbe launches a fresh measured guest on kind's backend and tears
// it down at once: its boot cost is what a warm restore — or a live
// migration — saved.
func coldProbe(c *confbench.Cluster, kind tee.Kind, memMB int) (time.Duration, error) {
	backend, err := c.Backend(kind)
	if err != nil {
		return 0, err
	}
	probe, err := backend.Launch(tee.GuestConfig{Name: "cold-probe", MemoryMB: memMB})
	if err != nil {
		return 0, fmt.Errorf("cold probe (%s): %w", kind, err)
	}
	return probe.BootCost(), probe.Destroy()
}
