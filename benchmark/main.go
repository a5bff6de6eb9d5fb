// Command benchmark is the repository's benchmark: four end-to-end
// workloads over the ConfBench pipeline, each reported as a handful of
// gated end-to-end metrics (tracing off) or, in a separate traced run,
// as a per-layer wall-time breakdown of every layer an invoke crosses.
// BENCHMARK.json at the repository root declares the metrics; README.md
// beside this file explains them. The benchmark is a module of its own
// (go.mod beside this file replaces confbench with the repository
// around it), so it is run from this directory:
//
//	go run -C benchmark .                            # the whole suite, both runs of every workload
//	go run -C benchmark . -workload relay-small      # one end-to-end run
//	go run -C benchmark . -workload relay-small -trace 1
//	go run -C benchmark . -aa 5                      # run-to-run spread against the bounds
//
// Each workload run is one process; the suite and -aa re-execute this
// binary per run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeconds is how long one run measures when -seconds is not
// given; BENCHMARK.json's run_seconds carries the same value.
const defaultSeconds = 20

// errIncorrect marks a run that finished and reported, but whose
// outputs were wrong.
var errIncorrect = errors.New("run reported failures")

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: relay-small, tier-mixed, guest-mix, figures (empty = the whole suite)")
	seed := fs.Int64("seed", 1, "seeds the request list and the deployment's pricing noise")
	seconds := fs.Int("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0 = end-to-end run with tracing off; 1 = traced run reporting the per-layer metrics")
	jsonPath := fs.String("json", "", "also write the full result (sample counts, extra readings, notes) to this file")
	aa := fs.Int("aa", 0, "run the suite this many times on the same code and compare the spread of every end-to-end metric with its bound")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as declared by this program's metric tables and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	switch {
	case *manifest:
		return writeManifest(os.Stdout)
	case *aa > 0:
		return runAA(ctx, *aa, *seed, *seconds, *workload)
	case *workload == "":
		return runSuite(ctx, *seed, *seconds)
	}
	res, err := runWorkload(ctx, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	res.writeTable(os.Stderr)
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := res.writeContractLine(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runWorkload runs one workload once, end to end or traced, and fills
// the run's declared metric list.
func runWorkload(ctx context.Context, workload string, seed int64, seconds int, traced bool) (*runResult, error) {
	var res *runResult
	var err error
	d := time.Duration(seconds) * time.Second
	switch {
	case !knownWorkload(workload):
		return nil, fmt.Errorf("unknown workload %q", workload)
	case traced:
		res, err = runTraced(ctx, workload, seed, d)
	case workload == wlFigures:
		res, err = runFigures(ctx, seed, d)
	default:
		res, err = runInvokeUntraced(ctx, workload, seed, d, setupRepeats)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
	}
	if err := res.complete(specs); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return res, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}
