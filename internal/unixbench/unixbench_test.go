package unixbench

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
)

// flatPrice prices usage under the Xeon profile with no TEE charges.
func flatPrice(u meter.Usage) time.Duration {
	return cpumodel.XeonGold5515.TotalCost(u)
}

// taxedPrice prices usage with every component doubled, standing in
// for a heavily taxed secure VM.
func taxedPrice(u meter.Usage) time.Duration {
	return 2 * cpumodel.XeonGold5515.TotalCost(u)
}

// runScored executes the suite once and scores it under price, merging
// what the tests metered into m.
func runScored(s *Suite, m *meter.Context, price func(meter.Usage) time.Duration) (Result, error) {
	runs, err := s.Run(context.Background())
	if err != nil {
		return Result{}, err
	}
	durs := make([]time.Duration, len(runs))
	for i, r := range runs {
		m.Merge(r.Usage)
		durs[i] = price(r.Usage)
	}
	return Score(runs, durs)
}

func TestSuiteRunsAllTests(t *testing.T) {
	s := New(Options{Scale: 0.05})
	m := meter.NewContext()
	res, err := runScored(s, m, flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 12 {
		t.Fatalf("got %d tests, want 12", len(res.Scores))
	}
	names := map[string]bool{}
	for _, sc := range res.Scores {
		names[sc.Name] = true
		if sc.Rate <= 0 {
			t.Errorf("%s rate = %v", sc.Name, sc.Rate)
		}
		if sc.Index <= 0 {
			t.Errorf("%s index = %v", sc.Name, sc.Index)
		}
		if sc.Baseline <= 0 || sc.Unit == "" {
			t.Errorf("%s metadata incomplete: %+v", sc.Name, sc)
		}
	}
	for _, want := range []string{
		"dhry2reg", "whetstone-double", "execl", "fstime-256", "fstime-1024",
		"fstime-4096", "pipe", "context1", "spawn", "syscall", "shell1", "shell8",
	} {
		if !names[want] {
			t.Errorf("test %s missing", want)
		}
	}
	if res.Index <= 0 {
		t.Errorf("aggregate index = %v", res.Index)
	}
	// The suite must have metered real usage.
	if m.Get(meter.Syscalls) == 0 || m.Get(meter.ContextSwitches) == 0 {
		t.Error("suite metered no kernel interaction")
	}
}

func TestIndexIsGeometricMeanOfTestIndexes(t *testing.T) {
	s := New(Options{Scale: 0.05})
	res, err := runScored(s, meter.NewContext(), flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	prod := 1.0
	for _, sc := range res.Scores {
		prod *= sc.Index
	}
	geo := 1.0
	for i := 0; i < len(res.Scores); i++ {
		geo *= res.Index
	}
	// prod^(1/n) == Index  ⇔  prod == Index^n
	if ratio := prod / geo; ratio < 0.999 || ratio > 1.001 {
		t.Errorf("index is not the geometric mean (ratio %v)", ratio)
	}
}

func TestSlowerPricingLowersIndex(t *testing.T) {
	s := New(Options{Scale: 0.05})
	fast, err := runScored(s, meter.NewContext(), flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := runScored(s, meter.NewContext(), taxedPrice)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Index >= fast.Index {
		t.Errorf("taxed index %v should be below flat %v", slow.Index, fast.Index)
	}
	ratio := fast.Index / slow.Index
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("2x tax should halve the index, ratio = %v", ratio)
	}
}

func TestScoreRejectsBadDurations(t *testing.T) {
	runs, err := New(Options{Scale: 0.05}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Score(runs, nil); err == nil {
		t.Error("missing durations accepted")
	}
	if _, err := Score(runs, make([]time.Duration, len(runs))); err == nil {
		t.Error("zero durations accepted")
	}
}

func TestRunStopsOnCanceledContext(t *testing.T) {
	// That the look at ctx happens between tests, not only on entry, is
	// pinned from the figure's side (bench.TestSuitesCancelBetweenTests).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := New(Options{Scale: 0.05}).Run(ctx)
	if !errors.Is(err, context.Canceled) || runs != nil {
		t.Errorf("Run = %d runs, %v; want canceled", len(runs), err)
	}
}

func TestScaleAffectsWorkNotRate(t *testing.T) {
	// Larger scale does more work in proportionally more (virtual)
	// time, so the rate must stay roughly constant.
	small, err := runScored(New(Options{Scale: 0.05}), meter.NewContext(), flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	large, err := runScored(New(Options{Scale: 0.1}), meter.NewContext(), flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Scores {
		s, l := small.Scores[i].Rate, large.Scores[i].Rate
		if ratio := l / s; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s rate changed with scale: %v vs %v", small.Scores[i].Name, s, l)
		}
	}
}

func TestRenderContainsEveryTest(t *testing.T) {
	res, err := runScored(New(Options{Scale: 0.05}), meter.NewContext(), flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(res)
	if out == "" {
		t.Fatal("empty render")
	}
	for _, sc := range res.Scores {
		if !contains(out, sc.Name) {
			t.Errorf("render missing %s", sc.Name)
		}
	}
	if !contains(out, "System Benchmarks Index Score") {
		t.Error("render missing aggregate line")
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && searchString(haystack, needle)
}

func searchString(h, n string) bool {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return true
		}
	}
	return false
}

func TestDefaultScale(t *testing.T) {
	s := New(Options{})
	if s.scale != 1.0 {
		t.Errorf("default scale = %v", s.scale)
	}
	if New(Options{Scale: -3}).scale != 1.0 {
		t.Error("negative scale not defaulted")
	}
}

func TestDhrystoneMetersCPU(t *testing.T) {
	m := meter.NewContext()
	loops := runDhrystone(m, 0.05)
	if loops <= 0 {
		t.Fatal("no loops")
	}
	if m.Get(meter.CPUOps) == 0 {
		t.Error("no CPU metered")
	}
}

func TestWhetstoneMetersFP(t *testing.T) {
	m := meter.NewContext()
	mwips := runWhetstone(m, 0.05)
	if mwips <= 0 {
		t.Fatal("no MWIPS")
	}
	if m.Get(meter.FPOps) == 0 {
		t.Error("no FP metered")
	}
}

// The second case fills the in-memory file's page more than once.
func TestFileCopyMetersIO(t *testing.T) {
	for _, tc := range []struct{ bufSize, blocks int }{{1024, 100}, {4096, 600}} {
		m := meter.NewContext()
		want := tc.bufSize * tc.blocks
		if kb := fileCopy(tc.bufSize, tc.blocks)(m, 1); kb != float64(want)/1024 {
			t.Errorf("fileCopy(%d, %d) copied %v KB, want %d", tc.bufSize, tc.blocks, kb, want/1024)
		}
		if m.Get(meter.IOReadBytes) != uint64(want) || m.Get(meter.IOWriteBytes) != uint64(want) {
			t.Errorf("fileCopy(%d, %d) under-metered", tc.bufSize, tc.blocks)
		}
	}
}

// TestFileCopyWorkAndUsagePinned: reusing one page instead of keeping
// the whole file changes neither what the fstime tests report nor what
// they meter, at the paper's scale and at the quick one. The figures
// are those of the file kept whole.
func TestFileCopyWorkAndUsagePinned(t *testing.T) {
	for _, tc := range []struct {
		bufSize, blocks int
		scale           float64
		work            float64
		usage           string
	}{
		{256, 500, 1, 125, "bytes-allocated=128000 bytes-touched=128000 io-read-bytes=128000 io-write-bytes=128000 syscalls=1000"},
		{1024, 2000, 1, 2000, "bytes-allocated=2048000 bytes-touched=2048000 io-read-bytes=2048000 io-write-bytes=2048000 syscalls=4000"},
		{4096, 8000, 1, 32000, "bytes-allocated=32768000 bytes-touched=32768000 io-read-bytes=32768000 io-write-bytes=32768000 syscalls=16000"},
		{256, 500, 0.125, 15.5, "bytes-allocated=15872 bytes-touched=15872 io-read-bytes=15872 io-write-bytes=15872 syscalls=124"},
		{1024, 2000, 0.125, 250, "bytes-allocated=256000 bytes-touched=256000 io-read-bytes=256000 io-write-bytes=256000 syscalls=500"},
		{4096, 8000, 0.125, 4000, "bytes-allocated=4096000 bytes-touched=4096000 io-read-bytes=4096000 io-write-bytes=4096000 syscalls=2000"},
	} {
		m := meter.NewContext()
		if work := fileCopy(tc.bufSize, tc.blocks)(m, tc.scale); work != tc.work {
			t.Errorf("fileCopy(%d, %d) at scale %v: work %v, want %v", tc.bufSize, tc.blocks, tc.scale, work, tc.work)
		}
		if got := m.Snapshot().String(); got != tc.usage {
			t.Errorf("fileCopy(%d, %d) at scale %v metered\n%s\nwant\n%s", tc.bufSize, tc.blocks, tc.scale, got, tc.usage)
		}
	}
}

// TestFstimeAllocationCeiling: fstime-4096 at scale 1 copies 32 000 KB
// through one reused page, so it allocates about 1 MiB; keeping the
// whole file allocated 33.
func TestFstimeAllocationCeiling(t *testing.T) {
	run := fileCopy(4096, 8000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(meter.NewContext(), 1)
	runtime.ReadMemStats(&after)
	const want = 2 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fstime-4096 allocates %d KiB", got>>10)
	if got > want {
		t.Fatalf("fstime-4096 allocates %d KiB, want at most %d KiB", got>>10, want>>10)
	}
}

func TestContextSwitchUsesRealGoroutines(t *testing.T) {
	m := meter.NewContext()
	loops := runContext1(m, 0.02)
	if loops <= 0 {
		t.Fatal("no round trips")
	}
	if m.Get(meter.ContextSwitches) != uint64(loops)*2 {
		t.Errorf("switches = %d for %v loops", m.Get(meter.ContextSwitches), loops)
	}
}

func TestSpawnMeters(t *testing.T) {
	m := meter.NewContext()
	n := runSpawn(m, 0.1)
	if m.Get(meter.ProcessSpawns) != uint64(n) {
		t.Errorf("spawns = %d, want %v", m.Get(meter.ProcessSpawns), n)
	}
}

func TestShellPipelineCounts(t *testing.T) {
	m1, m8 := meter.NewContext(), meter.NewContext()
	runShell(1)(m1, 0.1)
	runShell(8)(m8, 0.1)
	if m8.Get(meter.ProcessSpawns) != 8*m1.Get(meter.ProcessSpawns) {
		t.Errorf("shell8 spawns %d, want 8x shell1 %d",
			m8.Get(meter.ProcessSpawns), m1.Get(meter.ProcessSpawns))
	}
}

// TestRunIsPure: two executions of the suite return the same runs (the
// test functions aside), so one cluster can price one execution on
// every platform.
func TestRunIsPure(t *testing.T) {
	var runs [2][]TestRun
	for i := range runs {
		var err error
		if runs[i], err = New(Options{Scale: 0.05}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for j := range runs[i] {
			runs[i][j].run = nil // funcs are never DeepEqual
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("two runs differ:\n%+v\n%+v", runs[0], runs[1])
	}
}
