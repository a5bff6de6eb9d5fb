package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"confbench/internal/attest/dcap"
	"confbench/internal/attest/snp"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/container"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

// shape is one paper result, written down once: the paper's sentence
// and a predicate over a Report that says whether the report reproduces
// it and returns the measured values it judged.
type shape struct {
	id, paper string
	holds     func(r *Report) (measured string, ok bool)
}

// shapes are EXPERIMENTS.md's E1–E7 plus the three results beyond the
// paper's figures. They read the layout confbench-bench -json writes:
// one ML, DBMS and UnixBench result per platform, Fig. 5 attestation on
// TDX and SEV-SNP, the FaaS grids in the order rows 6, 7 and 8 append
// them (TDX, SEV-SNP, CCA, then Fig. 8's CCA distributions), and the
// firmware, collateral and containers rows' results. Every condition of
// the benchmark's figure-shape check (benchmark/figures.go) is here at
// the same or a tighter bound, so a change that would fail that check
// fails this table first.
var shapes = []shape{
	{"E1", "Fig. 3: ML inference runs close to native on TDX and SEV-SNP; CCA is visibly slower, up to 1.33×",
		func(r *Report) (string, bool) {
			tdxR, sevR, ccaR := perKind(r.ML, func(x MLResult) (tee.Kind, float64) { return x.Kind, x.Times.Ratio() })
			return fmt.Sprintf("ratio TDX %.3f, SEV %.3f, CCA %.3f", tdxR, sevR, ccaR),
				within(tdxR, 0.9, 1.25) && within(sevR, 0.9, 1.25) && within(ccaR, 1.1, 1.7) && ccaR > max(tdxR, sevR)
		}},
	{"E2", "§IV-C: DBMS ratios are very similar and close to 1 on TDX and SEV-SNP; CCA is on average up to 10×",
		func(r *Report) (string, bool) {
			tdxR, sevR, ccaR := perKind(r.DBMS, func(x DBMSResult) (tee.Kind, float64) { return x.Kind, x.AvgRatio })
			return fmt.Sprintf("avg ratio TDX %.2f, SEV %.2f, CCA %.2f", tdxR, sevR, ccaR),
				within(tdxR, 0.9, 1.5) && within(sevR, 0.9, 1.5) && ccaR >= 4 && ccaR > 2*max(tdxR, sevR)
		}},
	// TDX and SEV-SNP are "analogous" on UnixBench: which one is ahead
	// depends on the seed, so TDX may be up to 5 % over SEV-SNP.
	{"E3", "Fig. 4: UnixBench overheads exceed ML/DBMS; TDX has the least, SEV-SNP analogous figures, CCA the most",
		func(r *Report) (string, bool) {
			tdxR, sevR, ccaR := perKind(r.UnixBench, func(x UnixBenchResult) (tee.Kind, float64) { return x.Kind, x.TimeRatio })
			return fmt.Sprintf("time ratio TDX %.2f, SEV %.2f, CCA %.2f", tdxR, sevR, ccaR),
				tdxR > 1.1 && tdxR <= 1.05*sevR && ccaR > 2*max(tdxR, sevR)
		}},
	{"E4", "Fig. 5: SEV-SNP is faster than TDX at both attest and check; the TDX check is dominated by PCS network fetches",
		func(r *Report) (string, bool) {
			tdxA, sevA, _ := perKind(r.Attestation, func(x AttestationResult) (tee.Kind, float64) { return x.Kind, x.AttestMs.Mean })
			tdxC, sevC, _ := perKind(r.Attestation, func(x AttestationResult) (tee.Kind, float64) { return x.Kind, x.CheckMs.Mean })
			return fmt.Sprintf("attest/check ms TDX %.1f/%.1f, SEV %.1f/%.1f", tdxA, tdxC, sevA, sevC),
				0 < sevA && sevA < tdxA && 0 < sevC && sevC < tdxC && tdxC >= 400
		}},
	{"E5", "Fig. 6: TDX is faster on CPU-bound cells, SEV-SNP on I/O cells (TDX's bounce buffers)",
		func(r *Report) (string, bool) {
			tdxG, sevG, _, _, ok := grids(r)
			tdxIO, sevIO := rowMean(tdxG, "iostress"), rowMean(sevG, "iostress")
			tdxCPU, sevCPU := rowMean(tdxG, "cpustress", "factors"), rowMean(sevG, "cpustress", "factors")
			return fmt.Sprintf("iostress row TDX %.2f, SEV %.2f; cpustress+factors rows TDX %.3f, SEV %.3f", tdxIO, sevIO, tdxCPU, sevCPU),
				ok && tdxIO > sevIO && 0 < tdxCPU && tdxCPU < sevCPU
		}},
	{"E6", "Fig. 7: CCA's overheads are markedly higher than TDX's and SEV-SNP's",
		func(r *Report) (string, bool) {
			tdxG, sevG, ccaG, _, ok := grids(r)
			tdxM, sevM, ccaM := tdxG.MeanRatio(), sevG.MeanRatio(), ccaG.MeanRatio()
			return fmt.Sprintf("mean ratio TDX %.2f, SEV %.2f, CCA %.2f", tdxM, sevM, ccaM), ok && ccaM > 1.5*max(tdxM, sevM)
		}},
	{"E7", "Fig. 8: on CCA, the whiskers are longer with confidential VMs",
		func(r *Report) (string, bool) {
			_, _, _, fig8, ok := grids(r)
			var secure, normal []float64
			for _, row := range fig8.Cells {
				for _, c := range row {
					secure = append(secure, relativeRange(c.SecureMs))
					normal = append(normal, relativeRange(c.NormalMs))
				}
			}
			s, n := stats.Mean(secure), stats.Mean(normal)
			return fmt.Sprintf("mean run-to-run span secure %.3f, normal %.3f", s, n), ok && s > n
		}},
	{"firmware", "§III-B: before Intel's upgrade, the TDX module made runs consistently ~10× slower",
		func(r *Report) (string, bool) {
			ratio, ok := oneCell(r.Firmware)
			return fmt.Sprintf("buggy/current module %.2f", ratio), ok && within(ratio, 5, 15)
		}},
	{"collateral", "§IV-C: the TDX check fetches TCB info and CRLs from the PCS, a network share caching collateral removes",
		func(r *Report) (string, bool) {
			if len(r.Collateral) != 2 {
				return fmt.Sprintf("%d collateral results, want cold and cached", len(r.Collateral)), false
			}
			cold, cached := r.Collateral[0].CheckMs.Mean, r.Collateral[1].CheckMs.Mean
			return fmt.Sprintf("TDX check ms cold %.1f, cached %.1f", cold, cached), cached < cold/2
		}},
	{"containers", "§V: serverless workloads can run in confidential containers, with unpractical overheads",
		func(r *Report) (string, bool) {
			ratio, ok := oneCell(r.Containers)
			return fmt.Sprintf("container/VM on iostress %.2f", ratio), ok && ratio >= 2
		}},
}

func within(x, lo, hi float64) bool { return lo <= x && x <= hi }

// perKind reads one value per platform off per-platform results; a
// platform the results lack reads 0, which no row accepts.
func perKind[T any](results []T, read func(T) (tee.Kind, float64)) (onTDX, onSEV, onCCA float64) {
	m := make(map[tee.Kind]float64, len(results))
	for _, x := range results {
		k, v := read(x)
		m[k] = v
	}
	return m[tee.KindTDX], m[tee.KindSEV], m[tee.KindCCA]
}

// grids returns the report's four FaaS grids, ok when they are the ones
// rows 6, 7 and 8 append, in that order.
func grids(r *Report) (tdxG, sevG, ccaG, fig8 FaaSResult, ok bool) {
	if len(r.FaaS) != 4 {
		return tdxG, sevG, ccaG, fig8, false
	}
	tdxG, sevG, ccaG, fig8 = r.FaaS[0], r.FaaS[1], r.FaaS[2], r.FaaS[3]
	return tdxG, sevG, ccaG, fig8,
		tdxG.Kind == tee.KindTDX && sevG.Kind == tee.KindSEV && ccaG.Kind == tee.KindCCA && fig8.Kind == tee.KindCCA
}

// rowMean averages the cell ratios of the named workloads' rows.
func rowMean(g FaaSResult, workloads ...string) float64 {
	var xs []float64
	for _, w := range workloads {
		for _, l := range g.Languages {
			if c, err := g.Cell(w, l); err == nil {
				xs = append(xs, c.Ratio)
			}
		}
	}
	return stats.Mean(xs)
}

// relativeRange is (max − min) / median of one cell's samples: Fig. 8's
// whisker span at the few trials a run takes.
func relativeRange(xs []float64) float64 {
	s, err := stats.Summarize(xs)
	if err != nil {
		return math.NaN()
	}
	return (s.Max - s.Min) / s.Median
}

// oneCell is the ratio of a firmware or containers result: one
// platform, one cell.
func oneCell(results []FaaSResult) (float64, bool) {
	if len(results) != 1 || len(results[0].Cells) != 1 || len(results[0].Cells[0]) != 1 {
		return 0, false
	}
	return results[0].Cells[0][0].Ratio, true
}

// must unwraps a set-up step. Set-up cannot fail at these sizes, so a
// failure is a bug, and it panics with the cause.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// shapeReport measures every row's figure at test sizes, each on fresh
// pairs, into the layout confbench-bench -json writes.
func shapeReport(t *testing.T) *Report {
	ctx := context.Background()
	r := &Report{}
	for _, kind := range []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA} {
		r.ML = append(r.ML, must(ML(ctx, pairFor(t, kind), MLOptions{Images: 6, InputSize: 48})))
		r.DBMS = append(r.DBMS, must(DBMS(ctx, pairFor(t, kind), DBMSOptions{Size: 15})))
		r.UnixBench = append(r.UnixBench, must(UnixBench(ctx, pairFor(t, kind), UnixBenchOptions{Scale: 0.1})))
		// Larger scales and more trials than Fig. 8's, so the few-percent
		// TDX-vs-SEV CPU gap clears the jitter floor.
		r.FaaS = append(r.FaaS, must(FaaS(ctx, pairFor(t, kind), nil, FaaSOptions{
			Options:   Options{Trials: 6, ScaleDivisor: 2},
			Workloads: []string{"cpustress", "iostress", "factors", "logging"},
			Languages: []string{"go", "python", "wasm"},
		})))
	}
	r.FaaS = append(r.FaaS, must(FaaS(ctx, pairFor(t, tee.KindCCA), nil, FaaSOptions{
		Options:   Options{Trials: 5, ScaleDivisor: 8},
		Workloads: []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"},
		Languages: []string{"go", "python", "lua"},
	})))

	tdxB := must(tdx.NewBackend(tdx.Options{Seed: 51}))
	sevB := must(sev.NewBackend(sev.Options{Seed: 52}))
	baseline := pairOn(t, tdxB).Secure
	pcs := must(dcap.NewPCS("f"))
	if err := pcs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pcs.Close() })
	tdxAttester := dcap.NewAttester(baseline.Guest(), must(dcap.NewQuotingEnclave(tdxB.Module(), "f")))
	r.Attestation = []AttestationResult{
		must(Attestation(ctx, tee.KindTDX, tdxAttester, dcap.NewVerifier(pcs), 3)),
		must(Attestation(ctx, tee.KindSEV, snp.NewAttester(pairOn(t, sevB).Secure.Guest()),
			snp.NewVerifier(sevB.SecureProcessor().CertChainCopy()), 3)),
	}
	cached := dcap.NewVerifier(pcs)
	cached.CacheCollateral = true
	r.Collateral = []AttestationResult{r.Attestation[0], must(Attestation(ctx, tee.KindTDX, tdxAttester, cached, 3))}

	variant := func(secure *vm.VM, workload string) []FaaSResult {
		return []FaaSResult{must(FaaS(ctx, vm.Pair{Secure: secure, Normal: baseline}, nil, FaaSOptions{
			Options: Options{Trials: 3, ScaleDivisor: 8}, Workloads: []string{workload}, Languages: []string{"go"},
		}))}
	}
	r.Firmware = variant(pairOn(t, must(tdx.NewBackend(tdx.Options{Seed: 51, FirmwareVersion: tdx.BuggyFirmware}))).Secure, "cpustress")
	r.Containers = variant(pairOn(t, must(container.NewBackend(tdxB))).Secure, "iostress")
	return r
}

// TestShapes renders one report built at test sizes and judges every
// row of the table on it, then shows that each row can fail: a copy of
// the report, round-tripped through JSON and doctored against one row,
// fails that row and no other.
func TestShapes(t *testing.T) {
	r := shapeReport(t)
	for i, ml := range r.ML {
		if len(ml.SecureMs) != 6 || len(r.DBMS[i].PerTest) != 18 || len(r.UnixBench[i].PerTest) != 12 {
			t.Errorf("%s: %d ML samples, %d DBMS tests, %d UnixBench tests", ml.Kind,
				len(ml.SecureMs), len(r.DBMS[i].PerTest), len(r.UnixBench[i].PerTest))
		}
	}
	if _, err := r.FaaS[3].BoxPlotsFor("cobol"); err == nil {
		t.Error("unknown language box plots should fail")
	}
	box, err := RenderBoxPlots(r.FaaS[3], "go")
	for want, out := range map[string]string{"median": RenderML(r.ML), "avg ratio": RenderDBMS(r.DBMS),
		"dhry2reg": RenderUnixBench(r.UnixBench), "python": RenderHeatmap(r.FaaS[0]), "whigh": box} {
		if err != nil || !strings.Contains(out, want) {
			t.Errorf("render misses %q (%v):\n%s", want, err, out)
		}
	}
	for _, s := range shapes {
		measured, ok := s.holds(r)
		t.Logf("%s holds=%v: %s", s.id, ok, measured)
		if !ok {
			t.Errorf("%s does not hold: %s\n  paper: %s", s.id, measured, s.paper)
		}
	}

	// The report's platform order is TDX, SEV-SNP, CCA.
	doctor := map[string]func(d *Report){
		"E1": func(d *Report) { d.ML[2].Times.Secure.Mean = d.ML[2].Times.Normal.Mean },
		"E2": func(d *Report) { d.DBMS[2].AvgRatio = d.DBMS[0].AvgRatio },
		"E3": func(d *Report) { d.UnixBench[0].TimeRatio = 1.1 * d.UnixBench[1].TimeRatio },
		"E4": func(d *Report) { d.Attestation[1].CheckMs.Mean = d.Attestation[0].CheckMs.Mean },
		"E5": func(d *Report) { d.FaaS[0].Cells[1] = d.FaaS[1].Cells[1] }, // TDX's iostress row := SEV-SNP's
		"E6": func(d *Report) { d.FaaS[2].Cells = d.FaaS[0].Cells },
		"E7": func(d *Report) {
			for _, row := range d.FaaS[3].Cells {
				for j := range row {
					row[j].SecureMs = row[j].NormalMs
				}
			}
		},
		"firmware":   func(d *Report) { d.Firmware[0].Cells[0][0].Ratio = 1 },
		"collateral": func(d *Report) { d.Collateral[1] = d.Collateral[0] },
		"containers": func(d *Report) { d.Containers[0].Cells[0][0].Ratio = 1 },
	}
	for _, s := range shapes {
		breakRow, ok := doctor[s.id]
		if !ok {
			t.Errorf("%s: no doctored report shows it can fail", s.id)
			continue
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		d, err := ReadReport(&buf)
		if err != nil {
			t.Fatal(err)
		}
		breakRow(d)
		for _, other := range shapes {
			if _, holds := other.holds(d); holds == (other.id == s.id) {
				t.Errorf("report doctored against %s: %s holds = %v", s.id, other.id, holds)
			}
		}
	}
}

// TestE1HoldsOnEverySeed judges E1 on seeds 1–60 at TestShapes' ML
// sizes. Every seed launches its own TDX, SEV-SNP and CCA pairs, and
// all of them share one corpus, so the ML bodies execute once and each
// seed only prices them.
func TestE1HoldsOnEverySeed(t *testing.T) {
	var e1 shape
	for _, s := range shapes {
		if s.id == "E1" {
			e1 = s
		}
	}
	corpus := vm.NewCorpus()
	for seed := int64(1); seed <= 60; seed++ {
		r := &Report{}
		for _, b := range []tee.Backend{
			must(tdx.NewBackend(tdx.Options{Seed: seed})),
			must(sev.NewBackend(sev.Options{Seed: seed})),
			must(cca.NewBackend(cca.Options{Seed: seed})),
		} {
			pair := pairOn(t, b)
			pair.Corpus = corpus
			r.ML = append(r.ML, must(ML(context.Background(), pair, MLOptions{Images: 6, InputSize: 48})))
		}
		if measured, ok := e1.holds(r); !ok {
			t.Errorf("seed %d: E1 does not hold: %s", seed, measured)
		}
	}
}
