package bench

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
	"confbench/internal/workloads"
)

// countingLauncher counts the bodies it executes into a counter it may
// share with other launchers. It hides the launcher's raw run, so every
// cell it launches is a body of its own.
type countingLauncher struct {
	faas.Launcher
	calls *atomic.Int64
}

func (c *countingLauncher) Launch(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	c.calls.Add(1)
	return c.Launcher.Launch(ctx, fn, scale)
}

// countedPair launches a pair on backend, carrying corpus, whose two
// VMs carry every language's launcher, each counting its launches into
// calls.
func countedPair(t *testing.T, backend tee.Backend, corpus *vm.Corpus, calls *atomic.Int64) vm.Pair {
	return launchPair(t, backend, corpus, nil, func(l faas.Launcher) faas.Launcher {
		return &countingLauncher{Launcher: l, calls: calls}
	})
}

// launchPair launches a pair on backend, carrying corpus, whose two VMs
// carry every language's launcher on catalog (nil = the default), each
// passed through wrap.
func launchPair(t *testing.T, backend tee.Backend, corpus *vm.Corpus, catalog *workloads.Registry, wrap func(faas.Launcher) faas.Launcher) vm.Pair {
	t.Helper()
	machine := func(guest tee.Guest, err error) *vm.VM {
		if err != nil {
			t.Fatal(err)
		}
		launchers, err := langs.NewAllLaunchers(guest.Kind(), catalog)
		if err != nil {
			t.Fatal(err)
		}
		for lang, l := range launchers {
			launchers[lang] = wrap(l)
		}
		m, err := vm.New(vm.Config{Guest: guest, Host: backend.HostProfile(), Launchers: launchers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cfg := tee.GuestConfig{MemoryMB: 8}
	pair := vm.Pair{Secure: machine(backend.Launch(cfg)), Normal: machine(backend.LaunchNormal(cfg)), Corpus: corpus}
	t.Cleanup(func() { _ = pair.Stop() })
	return pair
}

// countingPair is a corpus-less counted pair on a TDX backend.
func countingPair(t *testing.T) (vm.Pair, *atomic.Int64) {
	t.Helper()
	backend, err := tdx.NewBackend(tdx.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int64)
	return countedPair(t, backend, nil, calls), calls
}

// TestPairedSampleExecutesOnce: a cell's paired samples are one
// execution priced on both VMs under one key per trial, at every worker
// count; and a pair with either VM stopped executes nothing.
func TestPairedSampleExecutesOnce(t *testing.T) {
	opts := FaaSOptions{
		Options:   Options{Trials: 3, ScaleDivisor: 8},
		Workloads: []string{"factors", "fib"},
		Languages: []string{langs.LangGo},
	}
	for _, workers := range []int{1, 4} {
		pair, calls := countingPair(t)
		opts.Workers = workers
		res, err := FaaS(context.Background(), pair, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, row := range res.Cells {
			for _, c := range row {
				if len(c.SecureMs) != opts.Trials || len(c.NormalMs) != opts.Trials {
					t.Errorf("cell %s/%s has %d/%d samples", c.Workload, c.Language, len(c.SecureMs), len(c.NormalMs))
				}
				cells++
			}
		}
		if got := calls.Load(); got != int64(cells) {
			t.Errorf("workers=%d: %d bodies executed for %d cells of %d trials", workers, got, cells, opts.Trials)
		}
	}

	for _, side := range []string{"secure", "normal"} {
		pair, calls := countingPair(t)
		stopped := pair.Secure
		if side == "normal" {
			stopped = pair.Normal
		}
		if err := stopped.Stop(); err != nil {
			t.Fatal(err)
		}
		if _, err := FaaS(context.Background(), pair, nil, opts); !errors.Is(err, vm.ErrStopped) {
			t.Errorf("FaaS with the %s VM stopped: %v", side, err)
		}
		if _, err := ML(context.Background(), pair, MLOptions{Images: 2, InputSize: 48}); !errors.Is(err, vm.ErrStopped) {
			t.Errorf("ML with the %s VM stopped: %v", side, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("%s VM stopped, yet %d bodies executed", side, n)
		}
	}
}

// TestCoLocationExecutesOnce: a sweep executes its probe once and
// prices it on every tenant of every point.
func TestCoLocationExecutesOnce(t *testing.T) {
	probe, err := workloads.Default().Lookup(probeWorkload)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	run := probe.Run
	probe.Run = func(m *meter.Context, scale int) (string, error) {
		calls.Add(1)
		return run(m, scale)
	}
	catalog, err := workloads.NewRegistry([]workloads.Workload{probe})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := tdx.NewBackend(tdx.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoLocation(context.Background(), backend, catalog, CoLocationOptions{Tenants: 4, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("a sweep over 1..4 tenants of 3 trials executed its probe %d times, want 1", n)
	}
}

// countdownCtx reports context.Canceled from its n-th Err call on: a
// deterministic Ctrl-C between two tests of a serial suite.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestSuitesCancelBetweenTests: the three figures that run a serial
// suite look at ctx after every test, so a cancel during the first test
// ends the figure there — canceled, at the bench layer — and not when
// the suite does.
func TestSuitesCancelBetweenTests(t *testing.T) {
	pair := pairFor(t, tee.KindTDX)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		// looks is how many times the figure looks at ctx before its
		// first test ends; the look after it is the one that cancels.
		looks int
		run   func(ctx context.Context) error
	}{
		{"dbms", 1, func(ctx context.Context) error {
			_, err := DBMS(ctx, pair, DBMSOptions{Size: 5})
			return err
		}},
		// The whole in-memory suite (18 tests) passes first: the cancel
		// lands after the durable backend's first test.
		{"storage", 1 + 18, func(ctx context.Context) error {
			_, err := DBMSStorage(ctx, pair, DBMSStorageOptions{Size: 5, Dir: dir})
			return err
		}},
		// The pair's admission looks once, then the suite before its
		// first test.
		{"unixbench", 2, func(ctx context.Context) error {
			_, err := UnixBench(ctx, pair, UnixBenchOptions{Scale: 0.05})
			return err
		}},
	} {
		ctx := &countdownCtx{Context: context.Background(), left: tc.looks}
		err := tc.run(ctx)
		if !errors.Is(err, cberr.ErrCanceled) || !errors.Is(err, context.Canceled) || cberr.LayerOf(err) != cberr.LayerBench {
			t.Errorf("%s: err = %v (layer %q), want canceled at the bench layer", tc.name, err, cberr.LayerOf(err))
		}
		if ctx.left != -1 {
			t.Errorf("%s: looked at ctx %d more times after the cancel", tc.name, -1-ctx.left)
		}
	}

	// The canceled storage run wrote a log under dir and closed it.
	if logs, _ := filepath.Glob(filepath.Join(dir, "speedtest-*", "seg-*.wal")); len(logs) == 0 {
		t.Fatal("canceled storage run left no log: the cancel did not land in the durable suite")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to look for a leaked log file in")
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, dir) {
			t.Errorf("durable backend still open after the cancel: fd %s -> %s", fd.Name(), target)
		}
	}
}
