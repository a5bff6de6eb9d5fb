package bench

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"confbench/internal/cberr"
	"confbench/internal/core"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
	"confbench/internal/workloads"
)

// fig8Subset is the Fig. 8 row's workload list.
var fig8Subset = []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"}

// corpusKinds are the platforms of the paper's test bed.
var corpusKinds = []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA}

// figureRows is what the figure rows measure on the three pairs pair
// returns: the TDX, SEV and CCA grids and the Fig. 8 subset on CCA,
// then ML, DBMS, UnixBench and storage on every pair, at small sizes.
type figureRows struct {
	FaaS      []FaaSResult
	ML        []MLResult
	DBMS      []DBMSResult
	UnixBench []UnixBenchResult
	Storage   []DBMSStorageResult
}

func runFigureRows(t *testing.T, workers int, pair func(tee.Kind) vm.Pair) figureRows {
	t.Helper()
	ctx := context.Background()
	opts := Options{Trials: 2, ScaleDivisor: 64, Workers: workers, Obs: obs.New()}
	var r figureRows
	for _, kind := range corpusKinds {
		res, err := FaaS(ctx, pair(kind), nil, FaaSOptions{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		r.FaaS = append(r.FaaS, res)
	}
	fig8 := opts
	fig8.Trials = 4
	res, err := FaaS(ctx, pair(tee.KindCCA), nil, FaaSOptions{Options: fig8, Workloads: fig8Subset})
	if err != nil {
		t.Fatal(err)
	}
	r.FaaS = append(r.FaaS, res)
	for _, kind := range corpusKinds {
		ml, err := ML(ctx, pair(kind), MLOptions{Images: 3, InputSize: 48, Workers: workers, Obs: opts.Obs})
		if err != nil {
			t.Fatal(err)
		}
		db, err := DBMS(ctx, pair(kind), DBMSOptions{Size: 5})
		if err != nil {
			t.Fatal(err)
		}
		ub, err := UnixBench(ctx, pair(kind), UnixBenchOptions{Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		st, err := DBMSStorage(ctx, pair(kind), DBMSStorageOptions{Size: 5})
		if err != nil {
			t.Fatal(err)
		}
		r.ML, r.DBMS, r.UnixBench = append(r.ML, ml), append(r.DBMS, db), append(r.UnixBench, ub)
		r.Storage = append(r.Storage, st)
	}
	return r
}

// TestClusterCorpusIsInvisible is the sharing differential: the rows
// one cluster measures, every body executed once for all three
// platforms, equal what fresh corpus-less pairs on the same backends
// measure executing every body for every row. The cluster side runs
// four bodies at a time.
func TestClusterCorpusIsInvisible(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{Seed: 5, GuestMemoryMB: 16, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shared := runFigureRows(t, 4, func(kind tee.Kind) vm.Pair {
		p, err := c.Pair(kind)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	fresh := runFigureRows(t, 1, func(kind tee.Kind) vm.Pair {
		b, err := c.Backend(kind)
		if err != nil {
			t.Fatal(err)
		}
		p, err := vm.NewPair(b, tee.GuestConfig{Name: "fresh", MemoryMB: 16}, c.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Stop() })
		return p
	})
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("rows measured through the cluster's corpus differ from rows executed afresh")
	}
	p, err := c.Pair(tee.KindTDX)
	if err != nil {
		t.Fatal(err)
	}
	// 30 raw runs (one per workload, for every language), 5 Wasm
	// bytecode cells, 3 images, one speedtest suite, one UnixBench
	// suite, one storage run.
	if got, want := p.Corpus.Len(), 30+5+3+1+1+1; got != want {
		t.Errorf("the cluster's corpus holds %d executions, want %d", got, want)
	}
}

// executions counts, per cluster, the raw runs of each (workload,
// scale) and the Wasm bytecode executions of each workload.
type executions struct {
	mu       sync.Mutex
	raw      map[rawCell]int
	bytecode map[string]int
}

type rawCell struct {
	workload string
	scale    int
}

// catalog wraps every default catalog entry so its runs count into e.
func (e *executions) catalog(t *testing.T) *workloads.Registry {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range workloads.Default().Names() {
		w, err := workloads.Default().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		run := w.Run
		w.Run = func(m *meter.Context, scale int) (string, error) {
			e.mu.Lock()
			e.raw[rawCell{name, scale}]++
			e.mu.Unlock()
			return run(m, scale)
		}
		ws = append(ws, w)
	}
	catalog, err := workloads.NewRegistry(ws)
	if err != nil {
		t.Fatal(err)
	}
	return catalog
}

// countingWasm counts the Wasm launches that reach it: the bytecode
// workloads. The embedded launcher keeps its split, so the workloads
// without bytecode still run as a shared raw run.
type countingWasm struct {
	*langs.WasmLauncher
	e *executions
}

func (c countingWasm) Launch(ctx context.Context, fn faas.Function, scale int) (faas.LaunchResult, error) {
	c.e.mu.Lock()
	c.e.bytecode[fn.Workload]++
	c.e.mu.Unlock()
	return c.WasmLauncher.Launch(ctx, fn, scale)
}

// pair launches a pair on backend, carrying corpus, whose launchers
// count into e.
func (e *executions) pair(t *testing.T, backend tee.Backend, corpus *vm.Corpus, catalog *workloads.Registry) vm.Pair {
	return launchPair(t, backend, corpus, catalog, func(l faas.Launcher) faas.Launcher {
		if w, ok := l.(*langs.WasmLauncher); ok {
			return countingWasm{WasmLauncher: w, e: e}
		}
		return l
	})
}

// TestClusterExecutesEachCellOnce: pairs on the three platforms of one
// cluster, sharing its corpus, run each (workload, scale) once for all
// seven languages, and each Wasm bytecode cell once, over the TDX, SEV
// and CCA grids and the Fig. 8 subset, serially and four at a time,
// with all three grids measured at once; the storage row on the three
// pairs leaves one log directory. A second cluster runs everything
// again.
func TestClusterExecutesEachCellOnce(t *testing.T) {
	ws := append([]string{"fib"}, fig8Subset...)
	bytecode := map[string]int{"cpustress": 1, "fib": 1, "memstress": 1} // ws's workloads with a Wasm export, once each
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		for cluster := 1; cluster <= 2; cluster++ {
			c, err := core.NewCluster(core.ClusterConfig{Seed: 5, GuestMemoryMB: 8, Obs: obs.New()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clusterPair, err := c.Pair(tee.KindTDX)
			if err != nil {
				t.Fatal(err)
			}
			e := &executions{raw: map[rawCell]int{}, bytecode: map[string]int{}}
			catalog := e.catalog(t)
			opts := FaaSOptions{Options: Options{Trials: 2, ScaleDivisor: 64, Workers: workers}, Workloads: ws}
			var wg sync.WaitGroup
			for _, kind := range corpusKinds {
				b, err := c.Backend(kind)
				if err != nil {
					t.Fatal(err)
				}
				pair := e.pair(t, b, clusterPair.Corpus, catalog)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := FaaS(context.Background(), pair, catalog, opts); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			ccaBackend, err := c.Backend(tee.KindCCA)
			if err != nil {
				t.Fatal(err)
			}
			fig8 := opts
			fig8.Trials, fig8.Workloads = 4, fig8Subset
			if _, err := FaaS(context.Background(), e.pair(t, ccaBackend, clusterPair.Corpus, catalog), catalog, fig8); err != nil {
				t.Fatal(err)
			}
			// The second cluster's counts are the first's: nothing
			// carried over from one to the other.
			if len(e.raw) != len(ws) {
				t.Errorf("workers=%d, cluster %d: raw runs of %d (workload, scale)s, want %d", workers, cluster, len(e.raw), len(ws))
			}
			for cell, n := range e.raw {
				if n != 1 {
					t.Errorf("workers=%d, cluster %d: %v ran %d times for 7 languages on 3 platforms, want once", workers, cluster, cell, n)
				}
			}
			if !reflect.DeepEqual(e.bytecode, bytecode) {
				t.Errorf("workers=%d, cluster %d: wasm bytecode runs %v, want %v", workers, cluster, e.bytecode, bytecode)
			}

			for _, kind := range corpusKinds {
				p, err := c.Pair(kind)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := DBMSStorage(context.Background(), p, DBMSStorageOptions{Size: 5, Dir: dir}); err != nil {
					t.Fatal(err)
				}
			}
			if logs, _ := filepath.Glob(filepath.Join(dir, "speedtest-*")); len(logs) != cluster {
				t.Errorf("workers=%d: after %d clusters' storage rows on 3 pairs, %d log directories, want %d", workers, cluster, len(logs), cluster)
			}
		}
	}
}

// TestCorpusHitRefuses: once the corpus holds every body, each row
// still refuses a canceled ctx (canceled) and a pair with either VM
// stopped (vm.ErrStopped), and executes nothing doing so.
func TestCorpusHitRefuses(t *testing.T) {
	b, err := tdx.NewBackend(tdx.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	corpus := vm.NewCorpus()
	var calls atomic.Int64
	faasOpts := FaaSOptions{Options: Options{Trials: 2, ScaleDivisor: 64}, Workloads: []string{"fib"}, Languages: []string{langs.LangGo}}
	rows := map[string]func(context.Context, vm.Pair) error{
		"faas": func(ctx context.Context, p vm.Pair) error { _, err := FaaS(ctx, p, nil, faasOpts); return err },
		"ml": func(ctx context.Context, p vm.Pair) error {
			_, err := ML(ctx, p, MLOptions{Images: 2, InputSize: 48})
			return err
		},
		"dbms": func(ctx context.Context, p vm.Pair) error { _, err := DBMS(ctx, p, DBMSOptions{Size: 5}); return err },
		"unixbench": func(ctx context.Context, p vm.Pair) error {
			_, err := UnixBench(ctx, p, UnixBenchOptions{Scale: 0.05})
			return err
		},
		"storage": func(ctx context.Context, p vm.Pair) error {
			_, err := DBMSStorage(ctx, p, DBMSStorageOptions{Size: 5})
			return err
		},
	}
	warm := countedPair(t, b, corpus, &calls)
	for name, row := range rows {
		if err := row(context.Background(), warm); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if calls.Load() != 1 || corpus.Len() != 1+2+1+1+1 {
		t.Fatalf("warm-up: %d launches, %d stored executions", calls.Load(), corpus.Len())
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, row := range rows {
		if err := row(canceled, warm); !errors.Is(err, cberr.ErrCanceled) {
			t.Errorf("%s on a canceled ctx after warm-up: %v", name, err)
		}
		for _, side := range []string{"secure", "normal"} {
			p := countedPair(t, b, corpus, &calls)
			stopped := p.Secure
			if side == "normal" {
				stopped = p.Normal
			}
			if err := stopped.Stop(); err != nil {
				t.Fatal(err)
			}
			if err := row(context.Background(), p); !errors.Is(err, vm.ErrStopped) {
				t.Errorf("%s with the %s VM stopped after warm-up: %v", name, side, err)
			}
		}
	}
	if calls.Load() != 1 {
		t.Errorf("refused rows executed %d bodies", calls.Load()-1)
	}
}
