package bench

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"confbench/internal/cberr"
	"confbench/internal/core"
	"confbench/internal/faas/langs"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

// fig8Subset is the Fig. 8 row's workload list.
var fig8Subset = []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"}

// corpusKinds are the platforms of the paper's test bed.
var corpusKinds = []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA}

// figureRows is what the figure rows measure on the three pairs pair
// returns: the TDX, SEV and CCA grids and the Fig. 8 subset on CCA,
// then ML, DBMS and UnixBench on every pair, at small sizes.
type figureRows struct {
	FaaS      []FaaSResult
	ML        []MLResult
	DBMS      []DBMSResult
	UnixBench []UnixBenchResult
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
		r.ML, r.DBMS, r.UnixBench = append(r.ML, ml), append(r.DBMS, db), append(r.UnixBench, ub)
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
	// 30 x 7 cells, 3 images, one speedtest suite, one UnixBench suite.
	if got, want := p.Corpus.Len(), 30*7+3+1+1; got != want {
		t.Errorf("the cluster's corpus holds %d executions, want %d", got, want)
	}
}

// TestClusterExecutesEachCellOnce: pairs on the three platforms of one
// cluster, sharing its corpus, execute each (workload, language, scale)
// cell once over the TDX, SEV and CCA grids and the Fig. 8 subset,
// serially and four at a time, with all three grids measured at once;
// a second cluster executes them again.
func TestClusterExecutesEachCellOnce(t *testing.T) {
	ws := append([]string{"fib"}, fig8Subset...)
	cells := int64(len(ws) * len(langs.Names()))
	for _, workers := range []int{1, 4} {
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
			var calls atomic.Int64
			opts := FaaSOptions{Options: Options{Trials: 2, ScaleDivisor: 64, Workers: workers}, Workloads: ws}
			var wg sync.WaitGroup
			for _, kind := range corpusKinds {
				b, err := c.Backend(kind)
				if err != nil {
					t.Fatal(err)
				}
				pair := countedPair(t, b, clusterPair.Corpus, &calls)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := FaaS(context.Background(), pair, nil, opts); err != nil {
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
			if _, err := FaaS(context.Background(), countedPair(t, ccaBackend, clusterPair.Corpus, &calls), nil, fig8); err != nil {
				t.Fatal(err)
			}
			// The second cluster's count is the first's: nothing
			// carried over from one to the other.
			if n := calls.Load(); n != cells {
				t.Errorf("workers=%d, cluster %d: %d cells executed %d times, want once each", workers, cluster, cells, n)
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
	}
	warm := countedPair(t, b, corpus, &calls)
	for name, row := range rows {
		if err := row(context.Background(), warm); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if calls.Load() != 1 || corpus.Len() != 1+2+1+1 {
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
