package bench

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"confbench/internal/attest/dcap"
	"confbench/internal/attest/snp"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

func pairFor(t *testing.T, kind tee.Kind) vm.Pair {
	t.Helper()
	var backend tee.Backend
	var err error
	switch kind {
	case tee.KindTDX:
		backend, err = tdx.NewBackend(tdx.Options{Seed: 41})
	case tee.KindSEV:
		backend, err = sev.NewBackend(sev.Options{Seed: 42})
	case tee.KindCCA:
		backend, err = cca.NewBackend(cca.Options{Seed: 43})
	}
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

func TestMLShape(t *testing.T) {
	tdxRes, err := ML(context.Background(), pairFor(t, tee.KindTDX), MLOptions{Images: 6, InputSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	ccaRes, err := ML(context.Background(), pairFor(t, tee.KindCCA), MLOptions{Images: 6, InputSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 3: TDX close to native; CCA visibly slower but
	// bounded (≈1.33× reported).
	if r := tdxRes.Times.Ratio(); r < 0.9 || r > 1.25 {
		t.Errorf("TDX ML ratio = %.3f, want ≈1", r)
	}
	if r := ccaRes.Times.Ratio(); r < 1.1 || r > 1.7 {
		t.Errorf("CCA ML ratio = %.3f, want ≈1.3", r)
	}
	if len(tdxRes.SecureMs) != 6 || tdxRes.Times.Secure.N != 6 {
		t.Error("sample counts wrong")
	}
	if tdxRes.Times.Secure.Min > tdxRes.Times.Secure.Median {
		t.Error("summary ordering broken")
	}
}

func TestDBMSShape(t *testing.T) {
	tdxRes, err := DBMS(context.Background(), pairFor(t, tee.KindTDX), DBMSOptions{Size: 15})
	if err != nil {
		t.Fatal(err)
	}
	ccaRes, err := DBMS(context.Background(), pairFor(t, tee.KindCCA), DBMSOptions{Size: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Paper §IV-C: TDX/SEV close to 1; CCA on average up to ~10×.
	if tdxRes.AvgRatio < 0.9 || tdxRes.AvgRatio > 1.5 {
		t.Errorf("TDX DBMS avg ratio = %.2f, want ≈1", tdxRes.AvgRatio)
	}
	if ccaRes.AvgRatio < 4 {
		t.Errorf("CCA DBMS avg ratio = %.2f, want large (paper: up to 10x)", ccaRes.AvgRatio)
	}
	if ccaRes.AvgRatio <= tdxRes.AvgRatio*2 {
		t.Error("CCA should dominate TDX on DBMS overhead")
	}
	if len(tdxRes.PerTest) != 18 {
		t.Errorf("per-test rows = %d", len(tdxRes.PerTest))
	}
}

func TestDBMSStorageShape(t *testing.T) {
	dir := t.TempDir()
	res, err := DBMSStorage(context.Background(), pairFor(t, tee.KindTDX), DBMSStorageOptions{Size: 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The durable cell charges the log's physical footprint (framing,
	// checksums, superseded versions) where the memory cell charges
	// logical dirty pages, plus a fsync pair per commit point.
	if res.Durable.WriteBytes <= res.Memory.WriteBytes {
		t.Errorf("durable writes %d <= memory writes %d; want amplification",
			res.Durable.WriteBytes, res.Memory.WriteBytes)
	}
	if res.WriteAmplification <= 1 {
		t.Errorf("write amplification = %.2f, want > 1", res.WriteAmplification)
	}
	if res.Durable.Syscalls <= res.Memory.Syscalls {
		t.Errorf("durable syscalls %d <= memory syscalls %d; want per-commit fsyncs",
			res.Durable.Syscalls, res.Memory.Syscalls)
	}
	if res.DurableOverhead < 1 {
		t.Errorf("durable overhead = %.2f, want >= 1", res.DurableOverhead)
	}
	// The suite ends with DROP TABLEs, so the live set is empty; the
	// log itself must still exist.
	if res.Segments < 1 {
		t.Errorf("log stats = %d segments; want >= 1", res.Segments)
	}
	if res.LiveBytes != 0 {
		t.Errorf("live bytes = %d after the suite's DROP TABLEs, want 0", res.LiveBytes)
	}
	// An explicit Dir keeps the log on disk for inspection.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Errorf("durable dir empty after run (err=%v)", err)
	}
	out := RenderDBMSStorage([]DBMSStorageResult{res})
	if !strings.Contains(out, "write amplification") || !strings.Contains(out, "durable") {
		t.Errorf("render missing storage cells:\n%s", out)
	}
}

func TestUnixBenchShape(t *testing.T) {
	tdxRes, err := UnixBench(context.Background(), pairFor(t, tee.KindTDX), UnixBenchOptions{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ccaRes, err := UnixBench(context.Background(), pairFor(t, tee.KindCCA), UnixBenchOptions{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4: overheads larger than ML/DBMS; CCA the worst.
	if tdxRes.TimeRatio <= 1.1 {
		t.Errorf("TDX UnixBench ratio = %.2f, want > 1.1", tdxRes.TimeRatio)
	}
	if ccaRes.TimeRatio <= tdxRes.TimeRatio {
		t.Error("CCA should have the largest UnixBench overhead")
	}
	if tdxRes.SecureIndex >= tdxRes.NormalIndex {
		t.Error("secure index should be below normal")
	}
	if len(tdxRes.PerTest) != 12 {
		t.Errorf("per-test entries = %d", len(tdxRes.PerTest))
	}
}

func TestAttestationShape(t *testing.T) {
	// TDX stack.
	tdxBackend, err := tdx.NewBackend(tdx.Options{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	tdxGuest, err := tdxBackend.Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tdxGuest.Destroy()
	pcs, err := dcap.NewPCS("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := pcs.Start(); err != nil {
		t.Fatal(err)
	}
	defer pcs.Close()
	qe, err := dcap.NewQuotingEnclave(tdxBackend.Module(), "f")
	if err != nil {
		t.Fatal(err)
	}
	tdxRes, err := Attestation(context.Background(), tee.KindTDX, dcap.NewAttester(tdxGuest, qe), dcap.NewVerifier(pcs), 3)
	if err != nil {
		t.Fatal(err)
	}

	// SEV stack.
	sevBackend, err := sev.NewBackend(sev.Options{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	sevGuest, err := sevBackend.Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sevGuest.Destroy()
	sevRes, err := Attestation(context.Background(), tee.KindSEV,
		snp.NewAttester(sevGuest),
		snp.NewVerifier(sevBackend.SecureProcessor().CertChainCopy()), 3)
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 5: both phases faster on SEV-SNP; TDX check dominated by
	// the PCS network fetches.
	if sevRes.AttestMs.Mean >= tdxRes.AttestMs.Mean {
		t.Errorf("SEV attest %.1fms should beat TDX %.1fms", sevRes.AttestMs.Mean, tdxRes.AttestMs.Mean)
	}
	if sevRes.CheckMs.Mean >= tdxRes.CheckMs.Mean {
		t.Errorf("SEV check %.1fms should beat TDX %.1fms", sevRes.CheckMs.Mean, tdxRes.CheckMs.Mean)
	}
	if tdxRes.CheckMs.Mean < 400 {
		t.Errorf("TDX check %.1fms should be network-dominated (≥3 PCS RTTs)", tdxRes.CheckMs.Mean)
	}
}

func faasSubset() FaaSOptions {
	return FaaSOptions{
		Options:   Options{Trials: 3, ScaleDivisor: 8},
		Workloads: []string{"cpustress", "iostress", "factors", "logging"},
		Languages: []string{"go", "python", "wasm"},
	}
}

func TestFaaSHeatmapShape(t *testing.T) {
	// Larger scales and more trials than the quick subset, so the
	// few-percent TDX-vs-SEV CPU gap clears the jitter floor.
	opts := FaaSOptions{
		Options:   Options{Trials: 6, ScaleDivisor: 2},
		Workloads: []string{"cpustress", "iostress", "factors", "logging"},
		Languages: []string{"go", "python", "wasm"},
	}
	tdxRes, err := FaaS(context.Background(), pairFor(t, tee.KindTDX), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sevRes, err := FaaS(context.Background(), pairFor(t, tee.KindSEV), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 6: TDX wins CPU, SEV wins I/O. Average over the CPU cells
	// of all languages so per-cell jitter does not flip the sign.
	cpuMean := func(r FaaSResult) float64 {
		var sum float64
		var n int
		for _, w := range []string{"cpustress", "factors"} {
			for _, l := range r.Languages {
				c, err := r.Cell(w, l)
				if err != nil {
					t.Fatal(err)
				}
				sum += c.Ratio
				n++
			}
		}
		return sum / float64(n)
	}
	if tdxCPU, sevCPU := cpuMean(tdxRes), cpuMean(sevRes); tdxCPU >= sevCPU {
		t.Errorf("TDX cpu-cell mean %.3f should beat SEV %.3f", tdxCPU, sevCPU)
	}
	tdxIO, _ := tdxRes.Cell("iostress", "go")
	sevIO, _ := sevRes.Cell("iostress", "go")
	if sevIO.Ratio >= tdxIO.Ratio {
		t.Errorf("SEV iostress %.2f should beat TDX %.2f", sevIO.Ratio, tdxIO.Ratio)
	}
	// Sanity on structure.
	if len(tdxRes.Cells) != 4 || len(tdxRes.Cells[0]) != 3 {
		t.Errorf("heatmap shape %dx%d", len(tdxRes.Cells), len(tdxRes.Cells[0]))
	}
	if _, err := tdxRes.Cell("nope", "go"); err == nil {
		t.Error("unknown cell lookup should fail")
	}
	if tdxRes.MeanRatio() <= 0 {
		t.Error("mean ratio missing")
	}
}

func TestFaaSCCAHigherOverheadAndVariance(t *testing.T) {
	opts := faasSubset()
	tdxRes, err := FaaS(context.Background(), pairFor(t, tee.KindTDX), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ccaRes, err := FaaS(context.Background(), pairFor(t, tee.KindCCA), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7: CCA overheads dominate.
	if ccaRes.MeanRatio() <= tdxRes.MeanRatio() {
		t.Errorf("CCA mean %.2f should exceed TDX %.2f", ccaRes.MeanRatio(), tdxRes.MeanRatio())
	}
	// Fig. 8: secure whiskers longer than normal ones, on average.
	boxes, err := ccaRes.BoxPlotsFor("go")
	if err != nil {
		t.Fatal(err)
	}
	var secSpan, norSpan float64
	for _, b := range boxes {
		secSpan += b.Secure.WhiskerSpan() / b.Secure.Median
		norSpan += b.Normal.WhiskerSpan() / b.Normal.Median
	}
	if secSpan <= norSpan {
		t.Errorf("CCA secure spans %.4f should exceed normal %.4f", secSpan, norSpan)
	}
	if _, err := ccaRes.BoxPlotsFor("cobol"); err == nil {
		t.Error("unknown language box plots should fail")
	}
}

func TestCoLocation(t *testing.T) {
	backend, err := tdx.NewBackend(tdx.Options{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoLocation(context.Background(), backend, nil, CoLocationOptions{
		Tenants: 3, Trials: 2, Workload: "factors", Language: "go",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].VsSingle != 1 {
		t.Errorf("first point vs-single = %v", res.Points[0].VsSingle)
	}
	// Interference must grow with tenant count.
	if res.Points[2].MeanMs <= res.Points[0].MeanMs {
		t.Error("no interference growth with co-location")
	}
	if RenderCoLocation(res) == "" {
		t.Error("empty render")
	}
}

func TestRenderers(t *testing.T) {
	pair := pairFor(t, tee.KindTDX)
	ml, err := ML(context.Background(), pair, MLOptions{Images: 3, InputSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderML([]MLResult{ml}); !strings.Contains(out, "tdx") || !strings.Contains(out, "median") {
		t.Errorf("ML render:\n%s", out)
	}
	db, err := DBMS(context.Background(), pair, DBMSOptions{Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderDBMS([]DBMSResult{db}); !strings.Contains(out, "avg ratio") {
		t.Errorf("DBMS render:\n%s", out)
	}
	ub, err := UnixBench(context.Background(), pair, UnixBenchOptions{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderUnixBench([]UnixBenchResult{ub}); !strings.Contains(out, "dhry2reg") {
		t.Errorf("UnixBench render:\n%s", out)
	}
	fa, err := FaaS(context.Background(), pair, nil, faasSubset())
	if err != nil {
		t.Fatal(err)
	}
	heat := RenderHeatmap(fa)
	if !strings.Contains(heat, "cpustress") || !strings.Contains(heat, "python") {
		t.Errorf("heatmap render:\n%s", heat)
	}
	box, err := RenderBoxPlots(fa, "go")
	if err != nil || !strings.Contains(box, "whigh") {
		t.Errorf("boxplot render: %v\n%s", err, box)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Trials != 10 || o.ScaleDivisor != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if p := PaperOptions(); p.Trials != 10 || p.ScaleDivisor != 1 {
		t.Errorf("paper options = %+v", p)
	}
	if q := QuickOptions(); q.Trials >= 10 {
		t.Errorf("quick options should be smaller: %+v", q)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	pair := pairFor(t, tee.KindTDX)
	ml, err := ML(context.Background(), pair, MLOptions{Images: 3, InputSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	in := &Report{
		ML:   []MLResult{ml},
		Meta: map[string]any{"trials": 3.0},
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.ML) != 1 || out.ML[0].Kind != tee.KindTDX {
		t.Errorf("round trip = %+v", out.ML)
	}
	if out.ML[0].Times.Ratio() != in.ML[0].Times.Ratio() {
		t.Error("ratio lost in serialization")
	}
	if out.Meta["trials"] != 3.0 {
		t.Errorf("meta lost: %v", out.Meta)
	}
	if _, err := ReadReport(bytes.NewBufferString("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
}
