package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"confbench"
	"confbench/internal/attest/dcap"
	"confbench/internal/bench"
	"confbench/internal/faas/langs"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/vm"
)

// Figure-pass sizes. One pass regenerates every figure of §IV at sizes
// trimmed so that several passes fit in one run (the full -quick suite
// takes ~13 s a pass on the seed commit; this takes ~4 s). The FaaS
// grids keep their full 30 x 7 shape, which is what the shape checks
// read; trials and image counts carry the trim.
const (
	figGuestMemoryMB = 16
	figMLImages      = 6
	figDBMSSize      = 50
	figStorageSize   = 20
	figAttestTrials  = 10
	figHeatmapTrials = 1
	figFig8Trials    = 3
	figScaleDivisor  = 8
	figMinPasses     = 2
)

var fig8Workloads = []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"}

// Stage names, in pass order; they are also the bench.<stage>_ms
// metrics' suffixes.
var figStages = []string{"ml", "dbms", "unixbench", "attestation", "faas", "storage"}

// figPass is what one pass over all figures produced.
type figPass struct {
	wallS    float64
	cells    int
	virtualS float64
	digest   string
	mallocs  uint64
	cpu      time.Duration
	stageMs  map[string]float64
	callMs   []float64 // wall of each bench.* call, the pass's "requests"
	problems []string
}

// figSizes scales a pass; the warm-up pass of set-up uses the minimum.
type figSizes struct {
	mlImages, dbmsSize, storageSize, attestTrials, fig8Trials int
	unixScale                                                 float64
	faasWorkloads                                             []string // nil = whole catalog
}

var fullFigSizes = figSizes{
	mlImages: figMLImages, dbmsSize: figDBMSSize, storageSize: figStorageSize,
	attestTrials: figAttestTrials, fig8Trials: figFig8Trials, unixScale: 1,
}

// warmFigSizes touches every stage once at the smallest size that
// still builds its lazy state (model weights, wasm module, PCS
// collateral).
var warmFigSizes = figSizes{
	mlImages: 1, dbmsSize: 5, storageSize: 5, attestTrials: 1, fig8Trials: 1,
	unixScale: 1.0 / 8, faasWorkloads: []string{"fib", "iostress"},
}

// bootFigures boots the figure harness's deployment: the paper's full
// test bed on the documented bit-identical serial schedule.
func bootFigures(seed int64) (*confbench.Cluster, error) {
	return confbench.New(
		confbench.WithSeed(seed),
		confbench.WithGuestMemoryMB(figGuestMemoryMB),
		confbench.WithWorkers(1),
		confbench.WithObsRegistry(confbench.NewObsRegistry()),
	)
}

// runFigurePass boots a fresh same-seed deployment and regenerates
// every figure on it. FaaS grids are measured one (workload, language)
// cell per bench.FaaS call, in the grid's own order, so each cell's
// wall time is a latency sample; the pricing models see the same
// invocation sequence as one whole-grid call.
func runFigurePass(ctx context.Context, seed int64, sz figSizes, shapes bool) (*figPass, error) {
	p := &figPass{stageMs: make(map[string]float64)}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	began := time.Now()

	cluster, err := bootFigures(seed)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	reg := cluster.Obs()
	report := &bench.Report{}
	// timed runs one bench.* call, charging its wall time to stage.
	timed := func(stage string, call func() error) error {
		t0 := time.Now()
		if err := call(); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		d := float64(time.Since(t0).Nanoseconds()) / 1e6
		p.stageMs[stage] += d
		p.callMs = append(p.callMs, d)
		return nil
	}
	sumMs := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	pairs := make(map[tee.Kind]vm.Pair, 3)
	for _, kind := range cluster.Kinds() {
		pair, err := cluster.Pair(kind)
		if err != nil {
			return nil, err
		}
		pairs[kind] = pair
	}

	for _, kind := range cluster.Kinds() {
		if err := timed("ml", func() error {
			res, err := bench.ML(ctx, pairs[kind], bench.MLOptions{Images: sz.mlImages, Workers: 1, Obs: reg})
			if err != nil {
				return err
			}
			report.ML = append(report.ML, res)
			p.cells += 2 * res.Images
			p.virtualS += (sumMs(res.SecureMs) + sumMs(res.NormalMs)) / 1e3
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for _, kind := range cluster.Kinds() {
		if err := timed("dbms", func() error {
			res, err := bench.DBMS(ctx, pairs[kind], bench.DBMSOptions{Size: sz.dbmsSize})
			if err != nil {
				return err
			}
			report.DBMS = append(report.DBMS, res)
			p.cells += len(res.PerTest)
			for _, t := range res.PerTest {
				p.virtualS += (t.SecureMs + t.NormalMs) / 1e3
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for _, kind := range cluster.Kinds() {
		if err := timed("unixbench", func() error {
			res, err := bench.UnixBench(ctx, pairs[kind], bench.UnixBenchOptions{Scale: sz.unixScale})
			if err != nil {
				return err
			}
			report.UnixBench = append(report.UnixBench, res)
			p.cells += 2 * len(res.PerTest) // the result carries index scores, not times
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Attestation: TDX with cold collateral (the paper's flow), TDX
	// with cached collateral (the E4 ablation), SEV-SNP. Its timings
	// fold measured compute time into the priced total, so they stay
	// out of the digest and the virtual-time sum.
	var attestation []bench.AttestationResult
	attestRound := func(kind tee.Kind, cached bool) error {
		return timed("attestation", func() error {
			a, v, err := cluster.TDXAttestation()
			if kind == tee.KindSEV {
				a, v, err = cluster.SEVAttestation()
			}
			if err != nil {
				return err
			}
			if cached {
				dv, ok := v.(*dcap.Verifier)
				if !ok {
					return fmt.Errorf("TDX verifier has unexpected type %T", v)
				}
				dv.CacheCollateral = true
			}
			res, err := bench.Attestation(ctx, kind, a, v, sz.attestTrials)
			if err != nil {
				return err
			}
			attestation = append(attestation, res)
			p.cells += sz.attestTrials
			return nil
		})
	}
	if err := attestRound(tee.KindTDX, false); err != nil {
		return nil, err
	}
	if err := attestRound(tee.KindTDX, true); err != nil {
		return nil, err
	}
	if err := attestRound(tee.KindSEV, false); err != nil {
		return nil, err
	}

	grid := func(kind tee.Kind, ws []string, trials int) (bench.FaaSResult, error) {
		if ws == nil {
			ws = cluster.Catalog().Names()
		}
		if sz.faasWorkloads != nil {
			ws = sz.faasWorkloads
		}
		languages := langs.Names()
		out := bench.FaaSResult{Kind: kind, Workloads: ws, Languages: languages, Cells: make([][]bench.Cell, len(ws))}
		opts := bench.Options{Trials: trials, ScaleDivisor: figScaleDivisor, Workers: 1, Obs: reg}
		for i, w := range ws {
			out.Cells[i] = make([]bench.Cell, len(languages))
			for j, l := range languages {
				if err := timed("faas", func() error {
					res, err := bench.FaaS(ctx, pairs[kind], cluster.Catalog(), bench.FaaSOptions{
						Options: opts, Workloads: []string{w}, Languages: []string{l},
					})
					if err != nil {
						return err
					}
					cell := res.Cells[0][0]
					out.Cells[i][j] = cell
					p.cells += len(cell.SecureMs) + len(cell.NormalMs)
					p.virtualS += (sumMs(cell.SecureMs) + sumMs(cell.NormalMs)) / 1e3
					return nil
				}); err != nil {
					return bench.FaaSResult{}, err
				}
			}
		}
		return out, nil
	}
	for _, kind := range []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA} {
		res, err := grid(kind, nil, figHeatmapTrials)
		if err != nil {
			return nil, err
		}
		report.FaaS = append(report.FaaS, res)
	}
	fig8, err := grid(tee.KindCCA, fig8Workloads, sz.fig8Trials)
	if err != nil {
		return nil, err
	}
	report.FaaS = append(report.FaaS, fig8)

	for _, kind := range cluster.Kinds() {
		if err := timed("storage", func() error {
			res, err := bench.DBMSStorage(ctx, pairs[kind], bench.DBMSStorageOptions{Size: sz.storageSize})
			if err != nil {
				return err
			}
			report.Storage = append(report.Storage, res)
			p.cells += 2 // the suite on the in-memory and on the durable backend
			p.virtualS += (res.Memory.SecureMs + res.Memory.NormalMs + res.Durable.SecureMs + res.Durable.NormalMs) / 1e3
			return nil
		}); err != nil {
			return nil, err
		}
	}

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	p.digest = hex.EncodeToString(sum[:])
	if shapes {
		report.Attestation = attestation
		p.problems = append(p.problems, figureShapeProblems(report)...)
	}
	// The figure harness runs in-process: nothing may have gone through
	// the gateway, the wire or the front tier.
	snap := reg.Snapshot()
	for _, family := range []string{
		"confbench_pool_checkouts_total", "confbench_http_requests_total",
		"confbench_wire_frames_total", "confbench_fronttier_invokes_total",
	} {
		if n := familySum(snap, family); n != 0 {
			p.problems = append(p.problems, fmt.Sprintf("figures pass moved %s by %v", family, n))
		}
	}
	if err := cluster.Close(); err != nil {
		p.problems = append(p.problems, "close: "+err.Error())
	}
	p.wallS = time.Since(began).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.cpu = processCPU() - cpu0
	return p, nil
}

// figureShapeProblems checks the E1–E7 shapes of EXPERIMENTS.md on one
// pass's results and returns the ones that do not hold.
func figureShapeProblems(r *bench.Report) []string {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	ml := make(map[tee.Kind]float64)
	for _, res := range r.ML {
		ml[res.Kind] = res.Times.Ratio()
	}
	if !(ml[tee.KindCCA] > ml[tee.KindTDX] && ml[tee.KindCCA] > ml[tee.KindSEV]) {
		fail("E1: ML ratio CCA %.3f not above TDX %.3f and SEV %.3f", ml[tee.KindCCA], ml[tee.KindTDX], ml[tee.KindSEV])
	}
	db := make(map[tee.Kind]float64)
	for _, res := range r.DBMS {
		db[res.Kind] = res.AvgRatio
	}
	if !(db[tee.KindCCA] > 2*db[tee.KindTDX] && db[tee.KindCCA] > 2*db[tee.KindSEV]) {
		fail("E2: DBMS avg ratio CCA %.2f not well above TDX %.2f and SEV %.2f", db[tee.KindCCA], db[tee.KindTDX], db[tee.KindSEV])
	}
	ub := make(map[tee.Kind]float64)
	for _, res := range r.UnixBench {
		ub[res.Kind] = res.TimeRatio
	}
	// TDX and SEV-SNP are "analogous" on UnixBench: which of the two is
	// ahead depends on the seed (TDX <= SEV on half of seeds 1..10), so
	// the check allows TDX 5 % over SEV and insists only on CCA >> both.
	if !(ub[tee.KindTDX] <= 1.05*ub[tee.KindSEV] && 2*ub[tee.KindTDX] < ub[tee.KindCCA] && 2*ub[tee.KindSEV] < ub[tee.KindCCA]) {
		fail("E3: UnixBench ratios TDX %.2f, SEV %.2f, CCA %.2f are not TDX <~ SEV << CCA", ub[tee.KindTDX], ub[tee.KindSEV], ub[tee.KindCCA])
	}
	if len(r.Attestation) == 3 {
		cold, cached, sev := r.Attestation[0], r.Attestation[1], r.Attestation[2]
		if !(sev.AttestMs.Mean < cold.AttestMs.Mean && sev.CheckMs.Mean < cold.CheckMs.Mean) {
			fail("E4: SEV attest/check %.1f/%.1f ms not below TDX %.1f/%.1f ms",
				sev.AttestMs.Mean, sev.CheckMs.Mean, cold.AttestMs.Mean, cold.CheckMs.Mean)
		}
		if !(cached.CheckMs.Mean < cold.CheckMs.Mean) {
			fail("E4: cached TDX check %.1f ms not below cold %.1f ms", cached.CheckMs.Mean, cold.CheckMs.Mean)
		}
	} else {
		fail("E4: expected 3 attestation results, got %d", len(r.Attestation))
	}
	if len(r.FaaS) == 4 {
		tdx, sev, cca, fig8 := r.FaaS[0], r.FaaS[1], r.FaaS[2], r.FaaS[3]
		rowMean := func(res bench.FaaSResult, workload string) float64 {
			var xs []float64
			for _, l := range res.Languages {
				if c, err := res.Cell(workload, l); err == nil {
					xs = append(xs, c.Ratio)
				}
			}
			return stats.Mean(xs)
		}
		if !(rowMean(tdx, "iostress") > rowMean(sev, "iostress")) {
			fail("E5: iostress row TDX %.2f not above SEV %.2f", rowMean(tdx, "iostress"), rowMean(sev, "iostress"))
		}
		if !(cca.MeanRatio() > tdx.MeanRatio() && cca.MeanRatio() > sev.MeanRatio()) {
			fail("E6: CCA mean ratio %.2f not above TDX %.2f and SEV %.2f", cca.MeanRatio(), tdx.MeanRatio(), sev.MeanRatio())
		}
		var secureSpan, normalSpan []float64
		for _, row := range fig8.Cells {
			for _, c := range row {
				secureSpan = append(secureSpan, relativeRange(c.SecureMs))
				normalSpan = append(normalSpan, relativeRange(c.NormalMs))
			}
		}
		if !(stats.Mean(secureSpan) > stats.Mean(normalSpan)) {
			fail("E7: secure run-to-run span %.3f not above normal %.3f", stats.Mean(secureSpan), stats.Mean(normalSpan))
		}
	} else {
		fail("E5-E7: expected 4 FaaS grids, got %d", len(r.FaaS))
	}
	return problems
}

// relativeRange is (max-min)/median of a cell's samples: the whisker
// span of Fig. 8 at the few trials a pass runs.
func relativeRange(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return (s[len(s)-1] - s[0]) / quantileSorted(s, 0.5)
}

// stageMetrics records the stage walls and priced virtual time of a
// pass, or of the n passes p is the median of.
func (p *figPass) stageMetrics(m metricSet, n int) {
	m.set(perLayerSpecs, "bench.virtual_s_per_pass", p.virtualS, n)
	for _, s := range figStages {
		m.set(perLayerSpecs, "bench."+s+"_ms", p.stageMs[s], n)
	}
}

// figRun is a sequence of identical full-size passes, reduced.
type figRun struct {
	passes    []*figPass
	cells     int
	problems  []string
	memMiB    float64
	gcPauseMs float64
	gcCycles  int

	cellsPerS, overhead, allocs, cpu []float64 // one per pass
	callMs                           []float64 // pooled over the passes
	stageMs                          map[string][]float64
}

// runFigurePasses runs whole passes until budget is used (at least two,
// so the digests can be compared) and checks that they agree.
func runFigurePasses(ctx context.Context, seed int64, budget time.Duration) (*figRun, error) {
	r := &figRun{stageMs: make(map[string][]float64)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	began := time.Now()
	for len(r.passes) < figMinPasses || time.Since(began) < budget {
		// Every pass starts from a collected heap (outside its own
		// timing), so the memory high-water is one pass's, repeatably.
		runtime.GC()
		p, err := runFigurePass(ctx, seed, fullFigSizes, true)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(r.passes)+1, err)
		}
		r.passes = append(r.passes, p)
	}
	runtime.ReadMemStats(&ms1)
	r.memMiB = float64(ms1.Sys) / (1 << 20)
	r.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.gcCycles = int(ms1.NumGC - ms0.NumGC)
	first := r.passes[0]
	for i, p := range r.passes {
		r.problems = append(r.problems, p.problems...)
		if p.digest != first.digest {
			r.problems = append(r.problems, fmt.Sprintf("pass %d digest %s differs from pass 1 %s", i+1, p.digest[:12], first.digest[:12]))
		}
		if p.virtualS != first.virtualS {
			r.problems = append(r.problems, fmt.Sprintf("pass %d priced %.9f virtual s, pass 1 %.9f", i+1, p.virtualS, first.virtualS))
		}
		r.cells += p.cells
		r.cellsPerS = append(r.cellsPerS, float64(p.cells)/p.wallS)
		r.overhead = append(r.overhead, p.wallS/p.virtualS)
		r.allocs = append(r.allocs, float64(p.mallocs)/float64(p.cells))
		r.cpu = append(r.cpu, p.cpu.Seconds()/float64(p.cells)*1000)
		r.callMs = append(r.callMs, p.callMs...)
		for _, s := range figStages {
			r.stageMs[s] = append(r.stageMs[s], p.stageMs[s])
		}
	}
	return r, nil
}

// layerMetrics records the per-layer readings of the passes: what the
// load figures are to an invoke workload, and the stage walls.
func (r *figRun) layerMetrics(m metricSet) {
	n := len(r.passes)
	m.set(perLayerSpecs, "load.ops_per_s", median(r.cellsPerS), n)
	m.set(perLayerSpecs, "load.latency_samples", float64(len(r.callMs)), len(r.callMs))
	m.set(perLayerSpecs, "latency_p99_ms", tailOrZero(r.callMs, 99), len(r.callMs))
	mid := &figPass{virtualS: r.passes[0].virtualS, stageMs: make(map[string]float64)}
	for _, s := range figStages {
		mid.stageMs[s] = median(r.stageMs[s])
	}
	mid.stageMetrics(m, n)
	m.set(perLayerSpecs, "runtime.gc_pause_ms", r.gcPauseMs, r.gcCycles)
	m.set(perLayerSpecs, "runtime.gc_cycles", float64(r.gcCycles), 0)
}

// runFigures is one end-to-end run of the figures workload: set-up
// several times (boot plus a warm-up pass that touches every stage),
// then whole passes until the measuring time is used.
func runFigures(ctx context.Context, seed int64, d time.Duration) (*runResult, error) {
	res := &runResult{Workload: wlFigures, Seed: seed, Metrics: metricSet{}, Extra: metricSet{}}
	baseline := runtime.NumGoroutine()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		began := time.Now()
		if _, err := runFigurePass(ctx, seed, warmFigSizes, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	r, err := runFigurePasses(ctx, seed, d)
	if err != nil {
		return nil, err
	}
	problems := r.problems
	leaked := settle(baseline)
	if leaked > 0 {
		problems = append(problems, fmt.Sprintf("%d goroutines still running after Close", leaked))
	}
	res.Attempted = r.cells + len(problems)
	res.Failed = len(problems)
	res.Correct = res.Failed == 0
	res.Notes = problems

	m, n := res.Metrics, len(r.passes)
	m.set(endToEndSpecs, "setup_s", median(setups), len(setups))
	m.set(endToEndSpecs, "ops_per_s", median(r.cellsPerS), n)
	m.set(endToEndSpecs, "latency_p50_ms", median(r.callMs), len(r.callMs))
	m.set(endToEndSpecs, "latency_p95_ms", tailOrZero(r.callMs, 95), len(r.callMs))
	m.set(endToEndSpecs, "harness_overhead_ratio", median(r.overhead), n)
	m.set(endToEndSpecs, "allocs_per_op", median(r.allocs), n)
	m.set(endToEndSpecs, "mem_sys_mb", r.memMiB, 1)
	m.set(endToEndSpecs, "cpu_s_per_kop", median(r.cpu), n)
	r.layerMetrics(res.Extra)
	res.Extra.set(perLayerSpecs, "runtime.goroutines_leaked", float64(leaked), 1)
	res.Extra.set(perLayerSpecs, "failed_share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	return res, nil
}

// tracedFigures is the figures workload's own part of a traced run:
// the passes' stage walls. (The figure harness opens no spans; its
// stages are timed around the bench.* calls.)
func tracedFigures(ctx context.Context, seed int64, budget time.Duration, m metricSet, t *tally) error {
	if _, err := runFigurePass(ctx, seed, warmFigSizes, false); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r, err := runFigurePasses(ctx, seed, budget)
	if err != nil {
		return err
	}
	t.attempted += r.cells
	t.problems = append(t.problems, r.problems...)
	r.layerMetrics(m)
	return nil
}
