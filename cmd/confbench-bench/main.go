// Command confbench-bench regenerates the paper's tables and figures
// on the simulated test bed and prints them as text, or runs one
// scenario file as a cluster drill.
//
//	confbench-bench [-fig NAME] [-quick] [-trials N] [-scale-divisor N] [-size N]
//	                [-images N] [-workers N] [-json FILE]
//	                [-seed N] [-transport NAME] [-durable-dir DIR] [-pprof ADDR]
//	confbench-bench -scenario scenarios/NAME.spec
//	                [-seed N] [-transport NAME] [-durable-dir DIR] [-pprof ADDR]
//
// Figures: the defaults run the paper's full protocol (10 trials, full
// workload scales, speedtest size 100); -quick is a CI-sized run. -fig
// picks a row of the table in figures.go: all, none, 3, dbms, 4, 5, 6,
// 7, 8, colocation, or storage, migration, coldstart, trace, firmware,
// collateral, containers, which "all" leaves out. -workers N executes
// measurement bodies N at a time; the results do not depend on it.
//
// Scenarios: -scenario FILE boots the topology the file declares, runs
// its script (seeded load, chaos, SLO sweeps, drains, kills, restarts;
// grammar in internal/drill), prints the report and makes the runner's
// fixed checks. It exits non-zero when a check fails or an objective
// fired or overspent its budget, so CI can gate on "stays within SLO".
// A figure flag beside -scenario is an error, not a silently ignored
// flag. Ctrl-C cancels either mode through the context plumbing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"confbench"
	"confbench/internal/drill"
	"confbench/internal/profiler"
	"confbench/internal/wire"
)

// errSLOViolated is the sentinel for a scenario that ended with a
// fired objective or an overspent error budget. main exits non-zero
// on it, so CI can gate merges on "the drill stayed within SLO".
var errSLOViolated = errors.New("slo violated")

// scenarioFlags are the flags a scenario run reads; any other flag
// given beside -scenario would be silently ignored, so it is refused.
var scenarioFlags = map[string]bool{"scenario": true, "seed": true, "transport": true, "durable-dir": true, "pprof": true}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "confbench-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("confbench-bench", flag.ContinueOnError)
	e := &env{}
	fig := fs.String("fig", "all", "figure to regenerate: "+figureNames())
	fs.IntVar(&e.trials, "trials", 10, "independent trials per measurement point (a body executes once and is priced under one key per trial)")
	fs.IntVar(&e.scaleDiv, "scale-divisor", 1, "divide workload scales by this factor")
	fs.IntVar(&e.dbSize, "size", 100, "speedtest relative size (speedtest1 --size)")
	fs.IntVar(&e.images, "images", 40, "ML dataset size")
	fs.Int64Var(&e.seed, "seed", 1, "deterministic noise seed")
	fs.IntVar(&e.workers, "workers", 1, "measurement bodies executed at a time (the results do not depend on it)")
	quick := fs.Bool("quick", false, "CI-sized run (3 trials, scales ÷8, size 20, 10 images)")
	jsonPath := fs.String("json", "", "also write results as JSON to this file")
	scenario := fs.String("scenario", "", "run this scenario file (scenarios/*.spec) as a cluster drill instead of figures; exits non-zero on a failed check or a violated objective")
	fs.StringVar(&e.transport, "transport", "", "pipeline hop carrier: httpjson (default) or binary (persistent multiplexed wire frames)")
	fs.StringVar(&e.durableDir, "durable-dir", "", "root of the durable persistence plane: telemetry spills here, and -fig storage keeps its speedtest log here, one directory per run and size, shared by every platform (empty = in-memory telemetry, throwaway storage logs; with -scenario: a fresh directory)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address while the bench runs (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !wire.ValidTransport(e.transport) {
		return fmt.Errorf("unknown transport %q (want %q or %q)",
			e.transport, wire.TransportHTTPJSON, wire.TransportBinary)
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if *scenario != "" && !scenarioFlags[f.Name] {
			stray = fmt.Errorf("-%s does not apply to a -scenario run", f.Name)
		}
	})
	if stray != nil {
		return stray
	}
	figs, err := lookupFigures(*fig)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		url, stopProf, err := profiler.Enable(*pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
		fmt.Fprintln(os.Stderr, "pprof serving", url)
	}
	if *scenario != "" {
		return runScenario(ctx, *scenario, drill.Config{Seed: e.seed, Transport: e.transport, DurableDir: e.durableDir})
	}
	if *quick {
		e.trials, e.scaleDiv, e.dbSize, e.images = 3, 8, 20, 10
	}
	e.report.Meta = map[string]any{
		"trials": e.trials, "scale_divisor": e.scaleDiv, "db_size": e.dbSize,
		"images": e.images, "seed": e.seed, "workers": e.workers,
	}
	defer func() {
		if e.cluster != nil {
			_ = e.cluster.Close()
		}
	}()
	for _, f := range figs {
		if err := f.run(ctx, e); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("create json report: %w", err)
		}
		defer f.Close()
		if err := e.report.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote JSON report to %s\n", *jsonPath)
	}
	return nil
}

// runScenario drives one scenario file, prints its report and makes
// the runner's fixed checks.
func runScenario(ctx context.Context, path string, cfg drill.Config) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := drill.Parse(src)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r, err := drill.Drive(ctx, sc, cfg)
	if err != nil {
		return err
	}
	fmt.Print(r.Report)
	if err := r.Finish(ctx); err != nil {
		return err
	}
	if r.Violated {
		return fmt.Errorf("%w: see the error-budget table above", errSLOViolated)
	}
	return nil
}

// runTrace sends one traced secure invocation per catalog workload to
// every platform and renders the slowest resulting span tree, i.e. the
// worst gateway → pool → relay-hop → host agent → VM → TEE path.
func runTrace(ctx context.Context, cluster *confbench.Cluster, scaleDiv int) (string, error) {
	client := cluster.Client()
	var sb strings.Builder
	sb.WriteString("=== Traced invocations (slowest span tree per workload) ===\n")
	for _, name := range cluster.Catalog().Names() {
		w, err := cluster.Catalog().Lookup(name)
		if err != nil {
			return "", err
		}
		fn := confbench.Function{Name: "trace-" + name, Language: "go", Workload: name}
		if err := client.Upload(ctx, fn); err != nil {
			return "", err
		}
		scale := w.DefaultScale / scaleDiv
		if scale < 1 {
			scale = 1
		}
		var slowest *confbench.InvokeResponse
		for _, kind := range cluster.Kinds() {
			resp, err := client.Invoke(ctx, confbench.InvokeRequest{
				Function: fn.Name, Secure: true, TEE: kind, Scale: scale, Trace: true,
			})
			if err != nil {
				return "", fmt.Errorf("%s on %s: %w", name, kind, err)
			}
			if slowest == nil || resp.WallNs > slowest.WallNs {
				slowest = &resp
			}
		}
		fmt.Fprintf(&sb, "\n--- %s (slowest of %d platforms, virtual wall %v) ---\n",
			name, len(cluster.Kinds()), slowest.Wall())
		sb.WriteString(confbench.RenderTrace(slowest.Trace))
	}
	return sb.String(), nil
}
