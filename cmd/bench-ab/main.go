// Command bench-ab runs the repository's benchmark (BENCHMARK.json,
// benchmark/run.sh) as alternating pairs on two checkouts and judges
// every gated end-to-end metric by the rules a perf claim is held to:
// the median and quartiles of each side, the change, the pairs won, the
// gap rule (the median gap against the parent's interquartile range),
// the bound and the run-to-run spread. Every other reading a run takes
// (its -json file's metrics and extra blocks) is kept as the two sides'
// medians, ungated. It appends one record per invocation to
// BENCH_<workload>.json, the committed trajectory, and exits non-zero
// after appending when a change run failed its own output check.
//
// Run it from the root of a checkout:
//
//	go run ./cmd/bench-ab -parent HEAD~1 -workload relay-small -pairs 8
//	go run ./cmd/bench-ab -parent HEAD~1 -workload relay-small -pairs 8 -aa
//
// The parent side is a local `git clone` of -parent; the change side is
// the checkout itself, uncommitted edits included. With -aa both sides
// are clones of the parent, and nothing may read as moved. Pair i runs
// seed -seed+i on both sides, the parent first on even pairs and the
// change first on odd ones. `make bench-ab` wraps it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench-ab:", err)
		os.Exit(1)
	}
}

// manifest is the part of BENCHMARK.json the comparison reads.
type manifest struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
}

// metricSpec is one gated end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// contractLine is the last stdout line of one benchmark run.
type contractLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// reading is one number of a run's -json file.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchRun is what one benchmark run reported: its contract line, and
// every reading of its -json file's metrics and extra blocks.
type benchRun struct {
	contractLine
	readings map[string]reading
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench-ab", flag.ContinueOnError)
	parent := fs.String("parent", "", "revision to compare against (required)")
	workload := fs.String("workload", "", "BENCHMARK.json workload to run (required)")
	pairs := fs.Int("pairs", 10, "alternating parent/change pairs")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs seed+i")
	aa := fs.Bool("aa", false, "run the parent against itself: the false-positive check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *workload == "" || *pairs < 1 {
		return errors.New("need -parent REV, -workload W and -pairs >= 1")
	}
	var m manifest
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if !declared(m, *workload) {
		return fmt.Errorf("workload %q is not in BENCHMARK.json", *workload)
	}

	top, err := git(ctx, ".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	parentRev, err := git(ctx, ".", "rev-parse", "--verify", *parent+"^{commit}")
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp("", "bench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	parentDir, changeDir, changeRev := filepath.Join(scratch, "parent"), ".", parentRev
	if err := clone(ctx, top, parentRev, parentDir); err != nil {
		return err
	}
	if *aa {
		changeDir = filepath.Join(scratch, "change")
		if err := clone(ctx, top, parentRev, changeDir); err != nil {
			return err
		}
	} else if changeRev, err = checkoutRev(ctx); err != nil {
		return err
	}

	rec := record{
		When: time.Now().UTC().Format(time.RFC3339), Workload: *workload,
		Parent: parentRev, Change: changeRev, AA: *aa, Pairs: *pairs,
		Seconds: m.RunSeconds, CPUs: runtime.NumCPU(),
	}
	var runs [2][]benchRun // parent, change
	jsonPath := filepath.Join(scratch, "run.json")
	for i := 0; i < *pairs; i++ {
		s := *seed + int64(i)
		rec.Seeds = append(rec.Seeds, s)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			dir := []string{parentDir, changeDir}[side]
			r, err := runOnce(ctx, dir, *workload, s, m.RunSeconds, jsonPath)
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], r)
			fmt.Fprintf(os.Stderr, "pair %d/%d seed %d %-6s attempted %d failed %d correct %v\n",
				i+1, *pairs, s, []string{"parent", "change"}[side], r.Attempted, r.Failed, r.Correct)
		}
	}
	rec.Failed = [2]float64{failedShare(runs[0]), failedShare(runs[1])}
	rec.Incorrect = [2]int{incorrect(runs[0]), incorrect(runs[1])}
	for _, spec := range m.EndToEnd {
		rec.Metrics = append(rec.Metrics, compare(spec, values(runs[0], spec.Name), values(runs[1], spec.Name)))
	}
	rec.Readings = medians(runs[0], runs[1])
	writeReport(os.Stdout, &rec)
	if err := appendRecord("BENCH_"+*workload+".json", &rec); err != nil {
		return err
	}
	if n := rec.Incorrect[1]; n > 0 {
		return fmt.Errorf("%d of %d change runs failed the benchmark's output check", n, *pairs)
	}
	return nil
}

func declared(m manifest, workload string) bool {
	for _, w := range m.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// git runs one git command in dir and returns its trimmed stdout.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// clone checks rev out of the repository at src into dir.
func clone(ctx context.Context, src, rev, dir string) error {
	if _, err := git(ctx, ".", "clone", "--quiet", "--no-checkout", src, dir); err != nil {
		return err
	}
	_, err := git(ctx, dir, "checkout", "--quiet", rev)
	return err
}

// checkoutRev names the checkout's own code: HEAD, marked dirty when
// tracked files other than the BENCH_*.json records differ from it.
func checkoutRev(ctx context.Context) (string, error) {
	head, err := git(ctx, ".", "rev-parse", "HEAD")
	if err != nil {
		return "", err
	}
	if _, err := git(ctx, ".", "diff", "--quiet", "HEAD", "--", ".", ":!BENCH_*.json"); err != nil {
		head += "+dirty"
	}
	return head, nil
}

// runOnce runs one benchmark process in dir, writing its full result
// to jsonPath, and parses the contract line it prints last and the
// readings of that file. A run that reports failures exits non-zero
// but still prints the line, and its failures are counted, not fatal.
func runOnce(ctx context.Context, dir, workload string, seed int64, seconds int, jsonPath string) (benchRun, error) {
	_ = os.Remove(jsonPath)
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh",
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-json", jsonPath)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var r benchRun
	var err error
	if r.contractLine, err = parseContract(stdout.Bytes()); err != nil {
		return r, fmt.Errorf("%s: %s seed %d: %v (%v): %s", dir, workload, seed, err, runErr, stderr.Bytes())
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		return r, fmt.Errorf("%s: %s seed %d: %w", dir, workload, seed, err)
	}
	if r.readings, err = parseReadings(blob); err != nil {
		return r, fmt.Errorf("%s: %s seed %d: %s: %w", dir, workload, seed, jsonPath, err)
	}
	return r, nil
}

// parseContract reads the contract line, the last line of a run's
// stdout.
func parseContract(stdout []byte) (contractLine, error) {
	var line contractLine
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// parseReadings merges the metrics and extra blocks of a run's -json
// file by name.
func parseReadings(blob []byte) (map[string]reading, error) {
	var res struct {
		Metrics map[string]reading `json:"metrics"`
		Extra   map[string]reading `json:"extra"`
	}
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, err
	}
	out := res.Metrics
	if out == nil {
		out = map[string]reading{}
	}
	for name, r := range res.Extra {
		out[name] = r
	}
	return out, nil
}

// incorrect counts the runs whose own output check failed.
func incorrect(runs []benchRun) int {
	n := 0
	for _, r := range runs {
		if !r.Correct {
			n++
		}
	}
	return n
}

func values(runs []benchRun, metric string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// failedShare is the share of attempted operations that failed.
func failedShare(runs []benchRun) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// appendRecord adds rec to the JSON array in path, creating it.
func appendRecord(path string, rec *record) error {
	var all []json.RawMessage
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(append(all, blob), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "appended to %s\n", path)
	return nil
}
