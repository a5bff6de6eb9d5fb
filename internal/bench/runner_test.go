package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
	"confbench/internal/workloads"
)

func TestRunnerSerialOrder(t *testing.T) {
	var got []int
	err := Runner{Workers: 1}.Run(context.Background(), 8, func(_ context.Context, i int) error {
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order broken: %v", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("ran %d of 8 tasks", len(got))
	}
}

func TestRunnerParallelRunsEveryIndex(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]bool)
	err := Runner{Workers: 8}.Run(context.Background(), 50, func(_ context.Context, i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("saw %d of 50 indices", len(seen))
	}
}

func TestRunnerLowestErrorWins(t *testing.T) {
	boom3 := errors.New("boom-3")
	boom7 := errors.New("boom-7")
	for _, workers := range []int{1, 2, 8} {
		err := Runner{Workers: workers}.Run(context.Background(), 10, func(_ context.Context, i int) error {
			switch i {
			case 3:
				return boom3
			case 7:
				return boom7
			}
			return nil
		})
		if !errors.Is(err, boom3) {
			t.Errorf("workers=%d: err = %v, want the index-3 error", workers, err)
		}
		if cberr.LayerOf(err) != cberr.LayerBench {
			t.Errorf("workers=%d: layer = %q", workers, cberr.LayerOf(err))
		}
	}
}

func TestRunnerCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := Runner{Workers: workers}.Run(ctx, 5, func(context.Context, int) error { return nil })
		if !errors.Is(err, cberr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want canceled", workers, err)
		}
	}
}

func TestRunnerZeroTasks(t *testing.T) {
	if err := (Runner{Workers: 4}).Run(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
}

// serialFaaSReference replays the harness's original serial loop —
// workload-major, language-minor, secure-then-normal per trial, the
// body executed on each VM — pricing each run under the sample's key,
// so the paired Workers=1 schedule can be proven bit-identical to it.
func serialFaaSReference(pair vm.Pair, catalog *workloads.Registry, opts FaaSOptions) (FaaSResult, error) {
	ctx := context.Background()
	opts.Options = opts.Options.WithDefaults()
	ws := opts.Workloads
	languages := opts.Languages
	res := FaaSResult{
		Kind:      pair.Secure.Platform(),
		Workloads: ws,
		Languages: languages,
	}
	for _, w := range ws {
		entry, err := catalog.Lookup(w)
		if err != nil {
			return FaaSResult{}, err
		}
		scale := entry.DefaultScale / opts.ScaleDivisor
		if scale < 1 {
			scale = 1
		}
		row := make([]Cell, 0, len(languages))
		for _, lang := range languages {
			fn := faas.Function{Name: w + "-" + lang, Language: lang, Workload: w}
			cell := Cell{Workload: w, Language: lang}
			var secureSum, normalSum float64
			for trial := 0; trial < opts.Trials; trial++ {
				key := tee.NewKey(w).Name(lang).Num(uint64(scale)).Num(uint64(trial))
				sRun, err := pair.Secure.Execute(ctx, fn, scale)
				if err != nil {
					return FaaSResult{}, err
				}
				nRun, err := pair.Normal.Execute(ctx, fn, scale)
				if err != nil {
					return FaaSResult{}, err
				}
				sRes, nRes := pair.Secure.Price(ctx, sRun, key), pair.Normal.Price(ctx, nRun, key)
				if sRes.Output != nRes.Output {
					return FaaSResult{}, fmt.Errorf("outputs diverged")
				}
				sMs := float64(sRes.Wall.Nanoseconds()) / 1e6
				nMs := float64(nRes.Wall.Nanoseconds()) / 1e6
				cell.SecureMs = append(cell.SecureMs, sMs)
				cell.NormalMs = append(cell.NormalMs, nMs)
				secureSum += sMs
				normalSum += nMs
			}
			cell.Ratio = stats.Ratio(secureSum, normalSum)
			row = append(row, cell)
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

func seededTDXPair(t *testing.T, seed int64) vm.Pair {
	t.Helper()
	backend, err := tdx.NewBackend(tdx.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := vm.NewPair(backend, tee.GuestConfig{MemoryMB: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pair.Stop() })
	return pair
}

func TestFaaSWorkers1ByteIdenticalToSerial(t *testing.T) {
	// Two identically-seeded deployments: one runs the Runner-based
	// FaaS at Workers=1, the other the reference serial loop, which
	// executes every body on both VMs. Byte-equal JSON proves that one
	// paired execution prices exactly as two separate ones.
	opts := FaaSOptions{
		Options:   Options{Trials: 3, ScaleDivisor: 8, Workers: 1},
		Workloads: []string{"cpustress", "iostress", "factors"},
		Languages: []string{"go", "python", "wasm"},
	}
	catalog := workloads.Default()

	got, err := FaaS(context.Background(), seededTDXPair(t, 271), catalog, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialFaaSReference(seededTDXPair(t, 271), catalog, opts)
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("Workers=1 output diverged from serial reference:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// sameJSON fails the test unless a and b marshal to the same bytes.
func sameJSON(t *testing.T, what string, a, b any) {
	t.Helper()
	aJSON, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bJSON, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aJSON) != string(bJSON) {
		t.Errorf("%s differ:\n%s\n%s", what, aJSON, bJSON)
	}
}

func TestFaaSWorkersByteIdentical(t *testing.T) {
	// Workers=4 executes and prices bodies concurrently, each under its
	// sample's key: same seed, same bytes as the serial run.
	mkOpts := func(workers int) FaaSOptions {
		return FaaSOptions{
			Options:   Options{Trials: 3, ScaleDivisor: 8, Workers: workers},
			Workloads: []string{"cpustress", "iostress", "factors", "logging"},
			Languages: []string{"go", "python", "wasm"},
		}
	}
	serial, err := FaaS(context.Background(), seededTDXPair(t, 314), nil, mkOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := FaaS(context.Background(), seededTDXPair(t, 314), nil, mkOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "FaaS at Workers 1 and 4", serial, par)
}

func TestMLWorkersByteIdentical(t *testing.T) {
	serial, err := ML(context.Background(), seededTDXPair(t, 99), MLOptions{Images: 8, InputSize: 48, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ML(context.Background(), seededTDXPair(t, 99), MLOptions{Images: 8, InputSize: 48, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "ML at Workers 1 and 4", serial, par)
}

func TestFaaSCellIndexMaps(t *testing.T) {
	res, err := FaaS(context.Background(), seededTDXPair(t, 5), nil, FaaSOptions{
		Options:   Options{Trials: 2, ScaleDivisor: 8},
		Workloads: []string{"cpustress", "factors"},
		Languages: []string{"go", "lua"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Cell("factors", "lua")
	if err != nil || c.Workload != "factors" || c.Language != "lua" {
		t.Errorf("Cell = %+v, %v", c, err)
	}
	// A result reconstructed from JSON finds its cells the same way.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var roundTrip FaaSResult
	if err := json.Unmarshal(data, &roundTrip); err != nil {
		t.Fatal(err)
	}
	c2, err := roundTrip.Cell("factors", "lua")
	if err != nil || c2.Ratio != c.Ratio {
		t.Errorf("round-trip Cell = %+v, %v", c2, err)
	}
	if _, err := roundTrip.Cell("nope", "go"); err == nil {
		t.Error("unknown workload accepted after round trip")
	}
}

func TestFaaSCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FaaS(ctx, seededTDXPair(t, 6), nil, FaaSOptions{Workloads: []string{"cpustress"}})
	if !errors.Is(err, cberr.ErrCanceled) {
		t.Errorf("err = %v, want cberr.ErrCanceled", err)
	}
}
