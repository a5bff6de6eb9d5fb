package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"confbench/internal/api"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/stats"
	"confbench/internal/tee"
)

// setupRepeats is how many times a run boots, uploads and warms its
// deployment in a contract run; setup_s is the median, and the last
// deployment is the one measured.
const setupRepeats = 3

// settle waits for goroutines a teardown has already told to stop, and
// returns how many more than baseline are still running: the leak.
func settle(baseline int) int {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ratioAcc accumulates priced virtual time per shape so guest-mix can
// check the paper's secure/normal ratios on what it just ran.
type ratioAcc struct {
	sumNs map[shapeKey]int64
	n     map[shapeKey]int
}

type shapeKey struct {
	fn     string
	kind   tee.Kind
	secure bool
}

func newRatioAcc() *ratioAcc {
	return &ratioAcc{sumNs: make(map[shapeKey]int64), n: make(map[shapeKey]int)}
}

func (a *ratioAcc) add(r request, virtNs int64) {
	k := shapeKey{r.Function, r.TEE, r.Secure}
	a.sumNs[k] += virtNs
	a.n[k]++
}

// meanRatio is, for one TEE, the mean over functions of (mean secure
// virtual time / mean normal virtual time): the heatmap's mean cell.
func meanRatio(accs []*ratioAcc, kind tee.Kind) (float64, int) {
	sum := make(map[shapeKey]int64)
	n := make(map[shapeKey]int)
	for _, a := range accs {
		for k, v := range a.sumNs {
			sum[k] += v
			n[k] += a.n[k]
		}
	}
	var ratios []float64
	for k, s := range sum {
		if k.kind != kind || !k.secure {
			continue
		}
		nk := shapeKey{k.fn, k.kind, false}
		if n[nk] == 0 || sum[nk] == 0 {
			continue
		}
		ratios = append(ratios, (float64(s)/float64(n[k]))/(float64(sum[nk])/float64(n[nk])))
	}
	return stats.Mean(ratios), len(ratios)
}

// Secure/normal ratio bands guest-mix must land in, around the means
// EXPERIMENTS.md reports for E5 and E6 (TDX 1.21, SEV-SNP 1.21, CCA
// 2.19; the quarter-scale arguments give 1.22, 1.22, 2.2): TDX and
// SEV-SNP tenable, CCA clearly above both.
// minRatioCells is how many (function) cells of a TEE must have been
// measured on both VM types before their mean ratio is judged.
const minRatioCells = 30

var ratioBands = map[tee.Kind][2]float64{
	tee.KindTDX: {1.05, 1.45},
	tee.KindSEV: {1.05, 1.45},
	tee.KindCCA: {1.7, 2.9},
}

// checkBed runs the workload's end-of-run checks and returns what
// failed, one line each. The ratio check needs the accumulators of a
// whole measured load; a run without them (the traced run) skips it.
func checkBed(b *bed, accs []*ratioAcc) []string {
	var problems []string
	switch {
	case b.workload == wlTierMixed:
		if sheds := familySum(b.reg.Snapshot(), "confbench_fronttier_sheds_total"); sheds != 0 {
			problems = append(problems, fmt.Sprintf("front tier shed %v requests", sheds))
		}
		statuses := b.cluster.FrontTier().SLO().Status()
		if len(statuses) != 2 {
			problems = append(problems, fmt.Sprintf("expected 2 SLO objectives, got %d", len(statuses)))
		}
		for _, st := range statuses {
			if st.State != slo.StateOK {
				problems = append(problems, fmt.Sprintf("SLO %s ended in state %s", st.Objective, st.State))
			}
		}
	case b.workload == wlGuestMix && accs != nil:
		means := make(map[tee.Kind]float64)
		for _, kind := range allKinds {
			m, cells := meanRatio(accs, kind)
			if cells < minRatioCells {
				return problems // a load too short to judge (smoke tests); 20 s covers all 210 cells
			}
			means[kind] = m
			band := ratioBands[kind]
			if m < band[0] || m > band[1] {
				problems = append(problems, fmt.Sprintf("%s mean secure/normal ratio %.3f over %d cells outside [%.2f, %.2f]",
					kind, m, cells, band[0], band[1]))
			}
		}
		if means[tee.KindCCA] <= means[tee.KindTDX] || means[tee.KindCCA] <= means[tee.KindSEV] {
			problems = append(problems, fmt.Sprintf("CCA mean ratio %.3f not above TDX %.3f and SEV %.3f",
				means[tee.KindCCA], means[tee.KindTDX], means[tee.KindSEV]))
		}
	}
	return problems
}

// familySum adds a counter family's series over all label sets.
func familySum(snap obs.Snapshot, family string) float64 {
	var sum float64
	for id, v := range snap.Counters {
		if f, _ := obs.ParseMetricID(id); f == family {
			sum += float64(v)
		}
	}
	return sum
}

// ratioHook returns per-client accumulators and the reply hook feeding
// them (nil hook for workloads that check no ratios).
func ratioHook(workload string) ([]*ratioAcc, replyHook) {
	if workload != wlGuestMix {
		return nil, nil
	}
	accs := make([]*ratioAcc, loadClients)
	for c := range accs {
		accs[c] = newRatioAcc()
	}
	return accs, func(c int, r request, _ time.Duration, resp *api.InvokeResponse) {
		accs[c].add(r, resp.WallNs)
	}
}

// runInvokeUntraced is one end-to-end run of an invoke workload:
// set-up setups times, one load of length d measured with tracing off,
// checks.
func runInvokeUntraced(ctx context.Context, workload string, seed int64, d time.Duration, setups int) (*runResult, error) {
	res := &runResult{Workload: workload, Seed: seed, Metrics: metricSet{}, Extra: metricSet{}}
	in, err := workloadInputs(workload, seed)
	if err != nil {
		return nil, err
	}
	baseline := runtime.NumGoroutine()
	var b *bed
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			// Collect the closed deployment before the next one boots, so
			// mem_sys_mb is the footprint of one deployment under load and
			// not of however much of three the collector had got to.
			runtime.GC()
		}
		began := time.Now()
		if b, err = bootBed(ctx, workload, seed, in); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(began).Seconds())
	}
	accs, hook := ratioHook(workload)
	run := runLoad(d, b.loadBody(ctx, false, hook))
	memMiB := memSysMiB() // before the summary allocates its own working set
	sum := run.summarize()
	problems := checkBed(b, accs)
	if err := b.close(); err != nil {
		problems = append(problems, "close: "+err.Error())
	}
	leaked := settle(baseline)
	if leaked > 0 {
		problems = append(problems, fmt.Sprintf("%d goroutines still running after Close", leaked))
	}

	res.Attempted = sum.attempted + len(problems)
	res.Failed = sum.failed + len(problems)
	res.Correct = res.Failed == 0
	res.Notes = append(run.notes, problems...)
	res.Notes = append(res.Notes, sum.tailNotes...)
	m := res.Metrics
	m.set(endToEndSpecs, "setup_s", median(setupS), len(setupS))
	m.set(endToEndSpecs, "ops_per_s", sum.opsPerS, sum.invokes)
	m.set(endToEndSpecs, "latency_p50_ms", sum.syncP50Ms, len(sum.syncLatMs))
	m.set(endToEndSpecs, "latency_p95_ms", sum.syncP95Ms, len(sum.syncLatMs))
	m.set(endToEndSpecs, "harness_overhead_ratio", sum.overheadRatio, len(sum.syncLatMs))
	m.set(endToEndSpecs, "allocs_per_op", sum.allocsPerOp, sum.invokes)
	m.set(endToEndSpecs, "mem_sys_mb", memMiB, 1)
	m.set(endToEndSpecs, "cpu_s_per_kop", sum.cpuSPerKop, sum.invokes)
	loadExtras(res.Extra, sum)
	res.Extra.set(perLayerSpecs, "failed_share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	res.Extra.set(perLayerSpecs, "runtime.goroutines_leaked", float64(leaked), 1)
	return res, nil
}

// loadExtras records the load figures that are per-layer (ungated)
// metrics: tier-mixed's async and ops-plane latencies, tails with
// their sample counts, and the GC's share.
func loadExtras(m metricSet, sum loadSummary) {
	m.set(perLayerSpecs, "load.ops_per_s", sum.opsPerS, sum.invokes)
	m.set(perLayerSpecs, "load.latency_samples", float64(len(sum.syncLatMs)), len(sum.syncLatMs))
	m.set(perLayerSpecs, "latency_p99_ms", sum.syncP99Ms, len(sum.syncLatMs))
	m.set(perLayerSpecs, "runtime.gc_pause_ms", sum.gcPauseMs, sum.gcCycles)
	m.set(perLayerSpecs, "runtime.gc_cycles", float64(sum.gcCycles), sum.gcCycles)
	if len(sum.asyncLatMs) > 0 {
		m.set(perLayerSpecs, "async_latency_p50_ms", median(sum.asyncLatMs), len(sum.asyncLatMs))
		m.set(perLayerSpecs, "fronttier.sync_p99_ms", tailOrZero(sum.syncLatMs, 99), len(sum.syncLatMs))
		m.set(perLayerSpecs, "fronttier.async_p99_ms", tailOrZero(sum.asyncLatMs, 99), len(sum.asyncLatMs))
	}
	if len(sum.obsLatMs) > 0 {
		m.set(perLayerSpecs, "obs_cluster_p50_ms", median(sum.obsLatMs), len(sum.obsLatMs))
	}
}
