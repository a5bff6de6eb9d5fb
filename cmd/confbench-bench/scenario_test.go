package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confbench/internal/drill"
)

// runCaptured runs the command and returns what it printed to stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = pw
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(pr)
		out <- string(b)
	}()
	runErr := run(context.Background(), args)
	pw.Close()
	return <-out, runErr
}

func spec(name string) string { return filepath.Join("..", "..", "scenarios", name+".spec") }

// TestScenarioViolated pins the gate's failure mode: every host faulted
// means every invoke fails, the availability objective fires, and the
// run returns errSLOViolated (so main exits non-zero).
func TestScenarioViolated(t *testing.T) {
	out, err := runCaptured(t, "-scenario", spec("slo-violated"), "-seed", "7")
	if !errors.Is(err, errSLOViolated) {
		t.Fatalf("all-hosts fault must violate the SLO, got %v", err)
	}
	for _, want := range []string{"invoke:10:fail", "ok=0 failed=10", "avail=firing", "verdict: violated=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("report misses %q:\n%s", want, out)
		}
	}
}

// TestScenarioMet pins the gate's success mode: a healthy run against a
// lenient objective exits clean.
func TestScenarioMet(t *testing.T) {
	if _, err := runCaptured(t, "-scenario", spec("slo-met"), "-seed", "7"); err != nil {
		t.Fatalf("healthy run must meet the SLO, got %v", err)
	}
}

// TestScenarioBadSpec pins early validation: a malformed objective, a
// missing file and an unknown verb all fail before any cluster boots,
// the parse errors naming file and line.
func TestScenarioBadSpec(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.spec")
	for src, want := range map[string]string{
		"slo:not-a-spec\nboot:\n":   "bad.spec: scenario line 1",
		"boot:\ninvoke:3\nwobble\n": "bad.spec: scenario line 3: unknown verb",
	} {
		if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var pe *drill.ParseError
		if _, err := runCaptured(t, "-scenario", bad); !errors.As(err, &pe) || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %q: got %v, want a parse error naming %q", src, err, want)
		}
	}
	if _, err := runCaptured(t, "-scenario", filepath.Join(t.TempDir(), "missing.spec")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing spec: got %v", err)
	}
}

// TestScenarioEverythingAtOnce: one run takes its shards, tenant, async
// path, chaos and objectives from the spec and its seed, carrier and
// durable dir from the command line — none silently dropped. run
// returning nil means the same-seed rerun rendered the identical report.
func TestScenarioEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two sharded clusters")
	}
	dir := t.TempDir()
	out, err := runCaptured(t, "-scenario", spec("sharded-async-chaos-slo"),
		"-seed", "3", "-transport", "binary", "-durable-dir", dir)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"=== scenario (seed 3) ===",
		"invoke:12:tenant=acme:async", // the tenant-stamped async burst…
		" ok=12 failed=0",             // …all of it served
		"confbench_fronttier_async_pending 0",
		`confbench_fronttier_invokes_total{shard="shard-0"}`,
		`confbench_fronttier_invokes_total{shard="shard-1"}`,
		`confbench_faults_injected_total{kind="error",point="hostagent.exec"}`,
		"avail=ok", "verdict: violated=false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " failed=1") || !strings.Contains(out, "totals: ok=36 failed=0 unexpected=0") {
		t.Errorf("the pools must absorb the pinned host fault:\n%s", out)
	}
	for _, sub := range []string{"front", "shard-0", "shard-1"} {
		if segs, _ := filepath.Glob(filepath.Join(dir, sub, "seg-*.wal")); len(segs) == 0 {
			t.Errorf("-durable-dir did not take effect: no spill under %s/%s", dir, sub)
		}
	}
	// The directory now holds a spill: driving on it again is refused up
	// front, not reported later as a nondeterministic rerun.
	if _, err := runCaptured(t, "-scenario", spec("slo-met"), "-durable-dir", dir); !errors.Is(err, drill.ErrDirInUse) {
		t.Errorf("second run on a used -durable-dir = %v, want drill.ErrDirInUse", err)
	}
	// A different seed is a different report (the header aside).
	other, err := runCaptured(t, "-scenario", spec("sharded-async-chaos-slo"), "-seed", "4")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(out, "\n")
	_, otherBody, _ := strings.Cut(other, "\n")
	if body == otherBody {
		t.Error("seeds 3 and 4 rendered the same report body")
	}
}

// TestScenarioRefusesFigureFlags: a flag the scenario run would ignore
// is an error, and so is an unknown figure — naming the valid ones.
func TestScenarioRefusesFigureFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", spec("slo-met"), "-fig", "5"},
		{"-scenario", spec("slo-met"), "-quick"},
		{"-scenario", spec("slo-met"), "-workers", "4"},
	} {
		if _, err := runCaptured(t, args...); err == nil || !strings.Contains(err.Error(), "does not apply to a -scenario run") {
			t.Errorf("%v: got %v", args, err)
		}
	}
	_, err := runCaptured(t, "-fig", "9")
	if err == nil || !strings.Contains(err.Error(), `unknown figure "9"`) || !strings.Contains(err.Error(), "colocation, migration, coldstart, trace") {
		t.Errorf("-fig 9: got %v, want an error naming the valid figures", err)
	}
}

// TestFigureTable: the help text and the lookup both come from the one
// table; "all" leaves out exactly the rows marked so, "none" runs
// nothing.
func TestFigureTable(t *testing.T) {
	all, err := lookupFigures("all")
	if err != nil || len(all) != 8 {
		t.Fatalf("all = %d rows, %v; want the paper's 8", len(all), err)
	}
	for _, name := range []string{"storage", "migration", "coldstart", "trace", "firmware", "collateral", "containers", "3", "colocation"} {
		rows, err := lookupFigures(name)
		if err != nil || len(rows) != 1 || rows[0].name != name {
			t.Errorf("lookup %q = %+v, %v", name, rows, err)
		}
		if !strings.Contains(figureNames(), name) {
			t.Errorf("help %q misses %q", figureNames(), name)
		}
	}
	if rows, err := lookupFigures("none"); err != nil || len(rows) != 0 {
		t.Errorf("none = %+v, %v", rows, err)
	}
	if !strings.HasSuffix(figureNames(), "(storage, migration, coldstart, trace, firmware, collateral, containers are not part of all)") {
		t.Errorf("help = %q", figureNames())
	}
}
