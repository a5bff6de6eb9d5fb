package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild re-executes this binary for one workload run and parses the
// contract line it prints last. The child's table goes to our stderr.
func runChild(ctx context.Context, workload string, seed int64, seconds int, traced bool) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (seed %d): %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s (seed %d): no result line: %w", workload, seed, err)
	}
	return &line, nil
}

// selected returns the workloads a suite or -aa invocation covers.
func selected(only string) ([]string, error) {
	if only != "" {
		if !knownWorkload(only) {
			return nil, fmt.Errorf("unknown workload %q", only)
		}
		return []string{only}, nil
	}
	var names []string
	for _, w := range workloadSpecs {
		names = append(names, w.Name)
	}
	return names, nil
}

// runSuite runs every workload end to end and then traced, one process
// each, so one command prints every metric and checks every output.
func runSuite(ctx context.Context, seed int64, seconds int) error {
	names, _ := selected("")
	incorrect := 0
	for _, traced := range []bool{false, true} {
		for _, w := range names {
			line, err := runChild(ctx, w, seed, seconds, traced)
			if err != nil {
				return err
			}
			if !line.Correct {
				incorrect++
			}
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs reported failures", incorrect)
	}
	return nil
}

// runAA runs the end-to-end suite n times on the same code, each time
// with another seed as the acceptance check does, and prints for every
// gated metric the median, the range and the relative spread next to
// its bound. It fails when a spread exceeds its bound (setup_s is
// reported, not judged: its bound is checked on medians only) or a run
// reports failures.
func runAA(ctx context.Context, n int, seed int64, seconds int, only string) error {
	names, err := selected(only)
	if err != nil {
		return err
	}
	over, incorrect := 0, 0
	for _, w := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			line, err := runChild(ctx, w, seed+int64(i), seconds, false)
			if err != nil {
				return err
			}
			if !line.Correct {
				incorrect++
			}
			for name, v := range line.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", w, n, seed, seed+int64(n)-1)
		fmt.Printf("%-26s %-6s %14s %14s %14s %9s %7s\n", "metric", "unit", "median", "min", "max", "spread", "bound")
		for _, spec := range endToEndSpecs {
			xs := values[spec.Name]
			sorted := sortedCopy(xs)
			spread := relativeSpread(xs)
			verdict := ""
			if spread > spec.Bound && spec.Name != "setup_s" {
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%-26s %-6s %14.4f %14.4f %14.4f %8.1f%% %6.0f%%%s\n",
				spec.Name, spec.Unit, median(xs), sorted[0], sorted[len(sorted)-1], spread*100, spec.Bound*100, verdict)
		}
	}
	switch {
	case incorrect > 0:
		return fmt.Errorf("%d runs reported failures", incorrect)
	case over > 0:
		return fmt.Errorf("%d metric spreads exceed their bounds", over)
	}
	return nil
}
