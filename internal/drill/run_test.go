package drill

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// drive parses and drives an inline spec on the smallest topology.
func drive(t *testing.T, seed int64, script string) *Run {
	t.Helper()
	sc, err := Parse([]byte(script))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Drive(context.Background(), sc, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// The runner's own checks have to fail at the right place: these tests
// hand Finish a run that breaks exactly one of them.

func TestFinishPassesACleanRun(t *testing.T) {
	r := drive(t, 7, "boot:tee=sev-snp:mem=8\ninvoke:4\nattest:2\nsweep")
	if err := r.Finish(context.Background()); err != nil || r.Violated {
		t.Fatalf("clean run: Finish = %v, violated = %v\n%s", err, r.Violated, r.Report)
	}
	for _, want := range []string{"=== scenario (seed 7) ===", "invoke:4", "ok=4 failed=0", "attestations=2", "@1s targets=2 failed=[]",
		"totals: ok=6 failed=0 unexpected=0", "confbench_pool_checkouts_total{tee=\"sev-snp\"}", "verdict: violated=false"} {
		if !strings.Contains(r.Report, want) {
			t.Errorf("report misses %q:\n%s", want, r.Report)
		}
	}
}

func TestUnmarkedFailureIsUnexpected(t *testing.T) {
	r := drive(t, 7, "chaos:hostagent.exec:error:1.0\nboot:tee=sev-snp:mem=8\ninvoke:2")
	err := r.Finish(context.Background())
	if !errors.Is(err, ErrUnexpected) || errors.Is(err, ErrNondeterministic) || errors.Is(err, ErrLeak) {
		t.Fatalf("Finish = %v, want ErrUnexpected alone", err)
	}
	if len(r.Unexpected) != 2 || !strings.Contains(err.Error(), "line 3, invoke 2 of 2: marked fail=false") {
		t.Errorf("unexpected outcomes %q not named by line in %v", r.Unexpected, err)
	}
}

func TestFailStepThatSucceedsIsUnexpected(t *testing.T) {
	r := drive(t, 7, "boot:tee=sev-snp:mem=8\ninvoke:1\nattest:1:fail")
	if err := r.Finish(context.Background()); !errors.Is(err, ErrUnexpected) ||
		!strings.Contains(err.Error(), "line 3, attest 1 of 1: marked fail=true, got error <nil>") {
		t.Fatalf("Finish = %v, want the succeeding fail step reported", err)
	}
}

func TestDifferingReportsAreCaught(t *testing.T) {
	const script = "boot:tee=sev-snp:mem=8\ninvoke:6"
	body := func(seed int64) string { // the header names the seed; the priced virtual time must differ too
		_, rest, _ := strings.Cut(drive(t, seed, script).Report, "\n")
		return rest
	}
	one, two := body(1), body(2)
	if err := sameReport(one, two); !errors.Is(err, ErrNondeterministic) || !strings.Contains(err.Error(), "--- second ---") {
		t.Fatalf("sameReport across seeds = %v, want ErrNondeterministic showing both", err)
	}
	if err := sameReport(one, body(1)); err != nil {
		t.Fatalf("sameReport at one seed = %v", err)
	}
}

func TestGoroutineOutlivingCloseIsCaught(t *testing.T) {
	defer func(d time.Duration) { settle = d }(settle)
	settle = 200 * time.Millisecond
	r := drive(t, 7, "boot:tee=sev-snp:mem=8\ninvoke:1")
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }() // stands in for a component Close forgot
	if err := r.Close(); !errors.Is(err, ErrLeak) {
		t.Fatalf("Close = %v, want ErrLeak", err)
	}
}

// TestLeakBesideAnExitingGoroutineIsCaught: a goroutine from before
// boot that exits while the run is open must not hide one that Close
// forgot — the two cancel out in a count of goroutines.
func TestLeakBesideAnExitingGoroutineIsCaught(t *testing.T) {
	defer func(d time.Duration) { settle = d }(settle)
	settle = 200 * time.Millisecond
	early := make(chan struct{})
	go func() { <-early }() // an earlier test's goroutine, still winding down
	r := drive(t, 7, "boot:tee=sev-snp:mem=8\ninvoke:1")
	close(early)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	if err := r.Close(); !errors.Is(err, ErrLeak) {
		t.Fatalf("Close = %v, want ErrLeak", err)
	}
}

func TestUsedDurableDirIsRefused(t *testing.T) {
	sc, err := Parse([]byte("boot:tee=sev-snp:mem=8\ninvoke:2\nsweep"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cfg := context.Background(), Config{Seed: 7, DurableDir: t.TempDir()}
	r, err := Drive(ctx, sc, cfg) // a fresh directory is fine, and is left holding the spill
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(ctx, sc, cfg); !errors.Is(err, ErrDirInUse) || !strings.Contains(err.Error(), cfg.DurableDir) {
		t.Fatalf("Drive on a used durable dir = %v, want ErrDirInUse naming it", err)
	}
}

func TestStepThatCannotRunIsAnError(t *testing.T) {
	for script, want := range map[string]string{
		"boot:tee=sev-snp:mem=8\ninvoke:1\ndrain:nowhere":     "scenario line 3 (drain:nowhere)",
		"boot:tee=sev-snp:mem=8\nkill:shard-9":                "scenario line 2 (kill:shard-9)",
		"chaos:relay.accept:drop:0.5\nboot:tee=sev-snp:mem=8": "scenario line 2 (boot:tee=sev-snp:mem=8): confbench: unknown transport",
	} {
		sc, err := Parse([]byte(script))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 1}
		if strings.HasPrefix(script, "chaos") {
			cfg.Transport = "carrier-pigeon"
		}
		if _, err := Drive(context.Background(), sc, cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Drive(%q) = %v; want an error naming %q", script, err, want)
		}
	}
}
