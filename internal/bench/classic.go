package bench

import (
	"context"
	"fmt"
	"os"
	"sync"

	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/meter"
	"confbench/internal/minidb"
	"confbench/internal/mlinfer"
	"confbench/internal/obs"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/unixbench"
	"confbench/internal/vm"
	"confbench/internal/wal"
)

// MLResult is the Fig. 3 data: per-image inference-time distributions
// for the secure and normal VM of one platform.
type MLResult struct {
	Kind tee.Kind `json:"tee"`
	// Images is the dataset size (paper: 40).
	Images int          `json:"images"`
	Times  SecureNormal `json:"times_ms"`
	// SecureMs and NormalMs are the raw per-image samples.
	SecureMs []float64 `json:"secure_ms"`
	NormalMs []float64 `json:"normal_ms"`
}

// MLOptions sizes the confidential-ML experiment.
type MLOptions struct {
	// Images is the dataset size (0 = 40, as in the paper).
	Images int
	// InputSize is the model input resolution (0 = 96).
	InputSize int
	// Workers bounds concurrent per-image inferences; the results do
	// not depend on it (see Runner).
	Workers int
	// Obs is the metrics registry the scheduling core reports to
	// (nil = the process-wide default).
	Obs *obs.Registry
}

// imageKey names one ML inference in a corpus: image i of the dataset
// (the same whatever the dataset's size) at one input resolution.
type imageKey struct{ inputSize, image int }

// ML reproduces the confidential-ML experiment (§IV-C, Fig. 3): a
// MobileNet-style model classifies every image of the synthetic 1-MB
// dataset, each inference priced on both VMs of the pair; per-image
// inference times give the stacked-percentile distributions. An image
// the pair's corpus holds is priced without classifying it again, and
// the model is built only if some image is not.
func ML(ctx context.Context, pair vm.Pair, opts MLOptions) (MLResult, error) {
	if opts.Images <= 0 {
		opts.Images = 40
	}
	if opts.InputSize <= 0 {
		opts.InputSize = 96
	}
	newModel := sync.OnceValues(func() (*mlinfer.Model, error) {
		return mlinfer.NewMobileNet(mlinfer.MobileNetConfig{InputSize: opts.InputSize})
	})
	p, err := measure(ctx, Runner{Workers: opts.Workers, Obs: opts.Obs}, pair, opts.Images, 1, func(ctx context.Context, i int) (faas.LaunchResult, error) {
		return vm.Shared(ctx, pair, imageKey{opts.InputSize, i}, func(ctx context.Context) (faas.LaunchResult, error) {
			model, err := newModel()
			if err != nil {
				return faas.LaunchResult{}, err
			}
			return pair.RunMetered(ctx, fmt.Sprintf("ml-image-%d", i), func(_ context.Context, m *meter.Context) (string, error) {
				img, err := mlinfer.DecodeAndResize(m, mlinfer.GenerateImage(i), opts.InputSize)
				if err != nil {
					return "", err
				}
				preds, err := model.Classify(m, img, 1)
				if err != nil {
					return "", err
				}
				return preds[0].Label, nil
			})
		})
	}, func(i, _ int) tee.Key { return tee.NewKey("ml").Num(uint64(i)) })
	if err != nil {
		return MLResult{}, fmt.Errorf("bench ml: %w", err)
	}
	secure, normal := p.Ms()
	sSum, err := stats.Summarize(secure)
	if err != nil {
		return MLResult{}, err
	}
	nSum, err := stats.Summarize(normal)
	if err != nil {
		return MLResult{}, err
	}
	return MLResult{
		Kind:     pair.Secure.Platform(),
		Images:   opts.Images,
		Times:    SecureNormal{Secure: sSum, Normal: nSum},
		SecureMs: secure,
		NormalMs: normal,
	}, nil
}

// DBMSTestRatio is one speedtest1-style test's secure/normal ratio.
type DBMSTestRatio struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	SecureMs float64 `json:"secure_ms"`
	NormalMs float64 `json:"normal_ms"`
	Ratio    float64 `json:"ratio"`
}

// DBMSResult is the §IV-C DBMS finding for one platform.
type DBMSResult struct {
	Kind     tee.Kind        `json:"tee"`
	Size     int             `json:"size"`
	PerTest  []DBMSTestRatio `json:"per_test"`
	AvgRatio float64         `json:"avg_ratio"`
	MaxRatio float64         `json:"max_ratio"`
}

// DBMSOptions sizes the DBMS experiment.
type DBMSOptions struct {
	// Size is the speedtest relative size (0 = 100, the paper's
	// default).
	Size int
}

// speedtestKey names one speedtest suite execution in a corpus.
type speedtestKey struct{ size int }

// speedtest is one execution of the suite: each test's usage, and what
// the suite reported for it.
type speedtest struct {
	runs    []faas.LaunchResult
	results []minidb.TestResult
}

// DBMS reproduces the confidential-DBMS experiment (§IV-C): the
// speedtest1-style suite runs once (once per corpus) and each test's
// usage is priced on both VMs, so the ratios can be compared test by
// test.
func DBMS(ctx context.Context, pair vm.Pair, opts DBMSOptions) (DBMSResult, error) {
	if opts.Size <= 0 {
		opts.Size = 100
	}

	// Per-test ratios need per-test usage: the suite runs once and the
	// progress callback empties the meter at every test boundary (and
	// looks at ctx there, so a cancel lands within one test).
	suite, err := vm.Shared(ctx, pair, speedtestKey{opts.Size}, func(ctx context.Context) (speedtest, error) {
		m := meter.NewContext()
		var s speedtest
		results, err := minidb.NewSpeedTest(opts.Size).RunWithProgress(m, func(minidb.TestResult) error {
			s.runs = append(s.runs, faas.LaunchResult{RunUsage: m.Snapshot()})
			m.Reset()
			return ctx.Err()
		})
		if err != nil {
			return speedtest{}, cberr.From(err, cberr.LayerBench)
		}
		if len(results) != len(s.runs) {
			return speedtest{}, fmt.Errorf("bench dbms: %d results vs %d progress callbacks", len(results), len(s.runs))
		}
		s.results = results
		return s, nil
	})
	if err != nil {
		return DBMSResult{}, err
	}
	secure, normal := priceRuns(ctx, pair, "dbms", suite.runs).Ms()
	out := DBMSResult{Kind: pair.Secure.Platform(), Size: opts.Size}
	var ratios []float64
	for i, r := range suite.results {
		ratio := stats.Ratio(secure[i], normal[i])
		out.PerTest = append(out.PerTest, DBMSTestRatio{
			ID: r.ID, Name: r.Name, SecureMs: secure[i], NormalMs: normal[i], Ratio: ratio,
		})
		ratios = append(ratios, ratio)
		if ratio > out.MaxRatio {
			out.MaxRatio = ratio
		}
	}
	out.AvgRatio = stats.Mean(ratios)
	return out, nil
}

// DBMSStorageCell is one backend's priced speedtest run: the suite's
// total metered usage priced under both VMs, plus the raw storage
// counters the pricing derives from.
type DBMSStorageCell struct {
	Backend    string  `json:"backend"` // "memory" or "durable"
	SecureMs   float64 `json:"secure_ms"`
	NormalMs   float64 `json:"normal_ms"`
	WriteBytes uint64  `json:"write_bytes"`
	Syscalls   uint64  `json:"syscalls"`
}

// DBMSStorageResult compares the speedtest suite on the in-memory
// pager against the durable log-structured backend for one platform.
// The memory cell charges the logical dirty-page volume at each commit
// point; the durable cell charges the write-ahead log's actual on-disk
// footprint (record framing, checksums, superseded versions) plus a
// fsync syscall pair per commit — the persistence plane's real price.
type DBMSStorageResult struct {
	Kind    tee.Kind        `json:"tee"`
	Size    int             `json:"size"`
	Memory  DBMSStorageCell `json:"memory"`
	Durable DBMSStorageCell `json:"durable"`
	// WriteAmplification is durable/memory storage write bytes.
	WriteAmplification float64 `json:"write_amplification"`
	// DurableOverhead is the durable/memory secure-time ratio.
	DurableOverhead float64 `json:"durable_overhead"`
	// Segments and LiveBytes snapshot the log after the suite.
	Segments  int   `json:"segments"`
	LiveBytes int64 `json:"live_bytes"`
}

// DBMSStorageOptions sizes the durability experiment.
type DBMSStorageOptions struct {
	// Size is the speedtest relative size (0 = 100).
	Size int
	// Dir roots the durable run's log. Empty uses a throwaway temp dir;
	// otherwise a fresh subdirectory is created under Dir and left in
	// place for inspection (segments, compaction state). The suites run
	// once per corpus and size, so the pairs of one cluster leave one
	// log directory per size, not one per call.
	Dir string
}

// storageKey names one run of the durability experiment in a corpus.
type storageKey struct{ size int }

// storageRun is one run of the experiment: the suite's usage on the
// in-memory and on the durable backend, and the log's stats after it.
type storageRun struct {
	runs []faas.LaunchResult
	log  wal.Stats
}

// DBMSStorage runs the speedtest suite twice — once on the in-memory
// pager, once mounted on the durable write-ahead-log backend — and
// prices both runs under the platform's secure and normal VM. The two
// cells isolate what durability costs a confidential DBMS: write
// amplification and per-commit fsyncs, which the TEE prices again as
// guest exits. The two suites run once per corpus, however many
// platforms price them.
func DBMSStorage(ctx context.Context, pair vm.Pair, opts DBMSStorageOptions) (DBMSStorageResult, error) {
	if opts.Size <= 0 {
		opts.Size = 100
	}
	run, err := vm.Shared(ctx, pair, storageKey{opts.Size}, func(ctx context.Context) (storageRun, error) {
		return runStorage(ctx, opts)
	})
	if err != nil {
		return DBMSStorageResult{}, err
	}

	secure, normal := priceRuns(ctx, pair, "storage", run.runs).Ms()
	cell := func(i int, name string) DBMSStorageCell {
		return DBMSStorageCell{
			Backend:    name,
			SecureMs:   secure[i],
			NormalMs:   normal[i],
			WriteBytes: run.runs[i].RunUsage[meter.IOWriteBytes],
			Syscalls:   run.runs[i].RunUsage[meter.Syscalls],
		}
	}
	out := DBMSStorageResult{
		Kind:      pair.Secure.Platform(),
		Size:      opts.Size,
		Memory:    cell(0, "memory"),
		Durable:   cell(1, "durable"),
		Segments:  run.log.Segments,
		LiveBytes: run.log.LiveBytes,
	}
	out.WriteAmplification = stats.Ratio(float64(out.Durable.WriteBytes), float64(out.Memory.WriteBytes))
	out.DurableOverhead = stats.Ratio(out.Durable.SecureMs, out.Memory.SecureMs)
	return out, nil
}

// runStorage runs the suite on the in-memory pager, then on a durable
// backend logging to a fresh directory, looking at ctx after every test.
func runStorage(ctx context.Context, opts DBMSStorageOptions) (storageRun, error) {
	dir := opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "confbench-storage-")
		if err != nil {
			return storageRun{}, fmt.Errorf("bench storage: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	logDir, err := os.MkdirTemp(dir, "speedtest-")
	if err != nil {
		return storageRun{}, fmt.Errorf("bench storage: %w", err)
	}

	runSuite := func(b minidb.Backend) (faas.LaunchResult, error) {
		st := minidb.NewSpeedTest(opts.Size)
		st.Backend = b
		m := meter.NewContext()
		_, err := st.RunWithProgress(m, func(minidb.TestResult) error { return ctx.Err() })
		return faas.LaunchResult{RunUsage: m.Snapshot()}, cberr.From(err, cberr.LayerBench)
	}
	run := storageRun{runs: make([]faas.LaunchResult, 2)}
	if run.runs[0], err = runSuite(nil); err != nil {
		return storageRun{}, fmt.Errorf("bench storage (memory): %w", err)
	}
	durable, err := minidb.NewDurableBackend(logDir)
	if err != nil {
		return storageRun{}, err
	}
	if run.runs[1], err = runSuite(durable); err != nil {
		_ = durable.Close()
		return storageRun{}, fmt.Errorf("bench storage (durable): %w", err)
	}
	run.log = durable.Stats()
	if err := durable.Close(); err != nil {
		return storageRun{}, err
	}
	return run, nil
}

// UnixBenchResult is the Fig. 4 data for one platform.
type UnixBenchResult struct {
	Kind tee.Kind `json:"tee"`
	// SecureIndex and NormalIndex are the aggregate UnixBench index
	// scores (throughput: higher is better).
	SecureIndex float64 `json:"secure_index"`
	NormalIndex float64 `json:"normal_index"`
	// TimeRatio is the secure/normal execution-time ratio implied by
	// the indexes (Fig. 4 plots time ratios, so > 1 means slower).
	TimeRatio float64 `json:"time_ratio"`
	// PerTest breaks the ratio down by UnixBench test.
	PerTest []UnixBenchTestRatio `json:"per_test"`
}

// UnixBenchTestRatio is one test's time ratio.
type UnixBenchTestRatio struct {
	Name      string  `json:"name"`
	TimeRatio float64 `json:"time_ratio"`
}

// UnixBenchOptions sizes the OS experiment.
type UnixBenchOptions struct {
	// Scale multiplies iteration counts (0 = 1.0).
	Scale float64
}

// unixbenchKey names one UnixBench suite execution in a corpus.
type unixbenchKey struct{ scale float64 }

// UnixBench reproduces the OS experiment (§IV-C, Fig. 4): the
// single-threaded suite runs once (once per corpus), each test's usage
// is priced on both VMs, and the aggregate index scores yield the
// secure/normal time ratio.
func UnixBench(ctx context.Context, pair vm.Pair, opts UnixBenchOptions) (UnixBenchResult, error) {
	tests, err := vm.Shared(ctx, pair, unixbenchKey{opts.Scale}, func(ctx context.Context) ([]unixbench.TestRun, error) {
		tests, err := unixbench.New(unixbench.Options{Scale: opts.Scale}).Run(ctx)
		return tests, cberr.From(err, cberr.LayerBench)
	})
	if err != nil {
		return UnixBenchResult{}, err
	}
	runs := make([]faas.LaunchResult, len(tests))
	for i, t := range tests {
		runs[i].RunUsage = t.Usage
	}
	p := priceRuns(ctx, pair, "unixbench", runs)
	secure, err := unixbench.Score(tests, p.Secure)
	if err != nil {
		return UnixBenchResult{}, fmt.Errorf("bench unixbench secure: %w", err)
	}
	normal, err := unixbench.Score(tests, p.Normal)
	if err != nil {
		return UnixBenchResult{}, fmt.Errorf("bench unixbench normal: %w", err)
	}
	res := UnixBenchResult{
		Kind:        pair.Secure.Platform(),
		SecureIndex: secure.Index,
		NormalIndex: normal.Index,
		// Index is throughput, so time ratio = normal/secure index.
		TimeRatio: stats.Ratio(normal.Index, secure.Index),
	}
	for i := range secure.Scores {
		res.PerTest = append(res.PerTest, UnixBenchTestRatio{
			Name:      secure.Scores[i].Name,
			TimeRatio: stats.Ratio(normal.Scores[i].Index, secure.Scores[i].Index),
		})
	}
	return res, nil
}
