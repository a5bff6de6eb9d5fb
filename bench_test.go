// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV). Each benchmark runs the corresponding experiment
// end-to-end on the simulated test bed and reports the paper's headline
// numbers as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction. Sizes are CI-friendly; the
// cmd/confbench-bench binary runs the same experiments at the paper's
// full protocol (10 trials, full scales) and renders the figures.
package confbench_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/attest/dcap"
	"confbench/internal/bench"
	"confbench/internal/faas"
	"confbench/internal/meter"
	"confbench/internal/minidb"
	"confbench/internal/mlinfer"
	"confbench/internal/tee"
	"confbench/internal/tee/container"
	"confbench/internal/vm"
	"confbench/internal/wasmvm"
)

// benchCluster lazily boots one shared cluster for all benchmarks.
var (
	benchClusterOnce sync.Once
	benchClusterInst *confbench.Cluster
	benchClusterErr  error
)

func sharedCluster(b *testing.B) *confbench.Cluster {
	b.Helper()
	benchClusterOnce.Do(func() {
		benchClusterInst, benchClusterErr = confbench.New(confbench.WithGuestMemoryMB(8))
	})
	if benchClusterErr != nil {
		b.Fatal(benchClusterErr)
	}
	return benchClusterInst
}

// BenchmarkFig3ConfidentialML regenerates Fig. 3: per-image inference
// time distributions for secure vs normal VMs on TDX, SEV-SNP, and
// CCA. Reported metrics are the secure/normal ratios of mean
// inference times per platform (paper: TDX/SEV ≈ 1, CCA ≤ 1.33).
func BenchmarkFig3ConfidentialML(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		for _, kind := range c.Kinds() {
			pair, err := c.Pair(kind)
			if err != nil {
				b.Fatal(err)
			}
			res, err := bench.ML(context.Background(), pair, bench.MLOptions{Images: 10, InputSize: 64})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Times.Ratio(), "ratio-"+string(kind))
		}
	}
}

// BenchmarkTableDBMS regenerates the §IV-C DBMS findings: the
// speedtest1-style suite's average secure/normal ratio per platform
// (paper: TDX/SEV close to 1; CCA on average up to 10×).
func BenchmarkTableDBMS(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		for _, kind := range c.Kinds() {
			pair, err := c.Pair(kind)
			if err != nil {
				b.Fatal(err)
			}
			res, err := bench.DBMS(context.Background(), pair, bench.DBMSOptions{Size: 30})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.AvgRatio, "avg-ratio-"+string(kind))
			b.ReportMetric(res.MaxRatio, "max-ratio-"+string(kind))
		}
	}
}

// BenchmarkFig4UnixBench regenerates Fig. 4: UnixBench index-score
// time ratios per platform (paper: larger than ML/DBMS; TDX least,
// CCA most).
func BenchmarkFig4UnixBench(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		for _, kind := range c.Kinds() {
			pair, err := c.Pair(kind)
			if err != nil {
				b.Fatal(err)
			}
			res, err := bench.UnixBench(context.Background(), pair, bench.UnixBenchOptions{Scale: 0.25})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TimeRatio, "ratio-"+string(kind))
		}
	}
}

// BenchmarkFig5Attestation regenerates Fig. 5: absolute attest/check
// latencies for TDX (DCAP quote + PCS-backed verification) and
// SEV-SNP (AMD-SP report + local chain), in milliseconds (paper: SEV
// faster at both phases; TDX check network-dominated).
func BenchmarkFig5Attestation(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		ta, tv, err := c.TDXAttestation()
		if err != nil {
			b.Fatal(err)
		}
		tdxRes, err := bench.Attestation(context.Background(), tee.KindTDX, ta, tv, 5)
		if err != nil {
			b.Fatal(err)
		}
		sa, sv, err := c.SEVAttestation()
		if err != nil {
			b.Fatal(err)
		}
		sevRes, err := bench.Attestation(context.Background(), tee.KindSEV, sa, sv, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tdxRes.AttestMs.Mean, "tdx-attest-ms")
		b.ReportMetric(tdxRes.CheckMs.Mean, "tdx-check-ms")
		b.ReportMetric(sevRes.AttestMs.Mean, "sev-attest-ms")
		b.ReportMetric(sevRes.CheckMs.Mean, "sev-check-ms")
	}
}

// fig6Options sizes the heatmap benchmarks: the full 30-workload ×
// 7-language matrix at reduced trials/scales.
func fig6Options() bench.FaaSOptions {
	return bench.FaaSOptions{Options: bench.Options{Trials: 2, ScaleDivisor: 8}}
}

// BenchmarkFig6FaaSHeatmap regenerates Fig. 6: the full workload ×
// language ratio heatmaps for TDX and SEV-SNP (paper: TDX wins
// CPU/memory cells, SEV wins I/O cells, a few cells < 1).
func BenchmarkFig6FaaSHeatmap(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		for _, kind := range bench.KindsTDXSEV {
			pair, err := c.Pair(kind)
			if err != nil {
				b.Fatal(err)
			}
			res, err := bench.FaaS(context.Background(), pair, c.Catalog(), fig6Options())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanRatio(), "mean-ratio-"+string(kind))
			b.ReportMetric(float64(res.CellsBelowOne()), "cells-below-1-"+string(kind))
		}
	}
}

// BenchmarkFig7CCAHeatmap regenerates Fig. 7: the same matrix on CCA
// (paper: markedly larger overheads than the bare-metal TEEs).
func BenchmarkFig7CCAHeatmap(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		pair, err := c.Pair(tee.KindCCA)
		if err != nil {
			b.Fatal(err)
		}
		res, err := bench.FaaS(context.Background(), pair, c.Catalog(), fig6Options())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanRatio(), "mean-ratio-cca")
	}
}

// BenchmarkFig8CCADistribution regenerates Fig. 8: per-function
// execution-time distributions over 10 independent runs on CCA,
// reporting the relative whisker spans (paper: secure whiskers
// longer).
func BenchmarkFig8CCADistribution(b *testing.B) {
	c := sharedCluster(b)
	opts := bench.FaaSOptions{
		Options:   bench.Options{Trials: 10, ScaleDivisor: 8},
		Workloads: []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"},
		Languages: []string{"go", "python", "lua"},
	}
	for i := 0; i < b.N; i++ {
		pair, err := c.Pair(tee.KindCCA)
		if err != nil {
			b.Fatal(err)
		}
		res, err := bench.FaaS(context.Background(), pair, c.Catalog(), opts)
		if err != nil {
			b.Fatal(err)
		}
		boxes, err := res.BoxPlotsFor("go")
		if err != nil {
			b.Fatal(err)
		}
		var secSpan, norSpan float64
		for _, box := range boxes {
			secSpan += box.Secure.WhiskerSpan() / box.Secure.Median
			norSpan += box.Normal.WhiskerSpan() / box.Normal.Median
		}
		b.ReportMetric(secSpan/float64(len(boxes)), "secure-rel-span")
		b.ReportMetric(norSpan/float64(len(boxes)), "normal-rel-span")
	}
}

// BenchmarkAblationTDXFirmware reproduces §III-B's firmware anecdote:
// the pre-upgrade TDX module made runs ~10× slower. Reported metric is
// the buggy/current execution-time ratio.
func BenchmarkAblationTDXFirmware(b *testing.B) {
	buggy, err := confbench.New(confbench.WithTEEs(tee.KindTDX),
		confbench.WithTDXFirmware("TDX_1.5.00.41.610"), confbench.WithGuestMemoryMB(8))
	if err != nil {
		b.Fatal(err)
	}
	defer buggy.Close()
	good := sharedCluster(b)

	fn := faas.Function{Name: "probe", Language: "go", Workload: "cpustress"}
	for i := 0; i < b.N; i++ {
		goodPair, err := good.Pair(tee.KindTDX)
		if err != nil {
			b.Fatal(err)
		}
		buggyPair, err := buggy.Pair(tee.KindTDX)
		if err != nil {
			b.Fatal(err)
		}
		g, err := goodPair.Secure.InvokeFunction(context.Background(), fn, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		bad, err := buggyPair.Secure.InvokeFunction(context.Background(), fn, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bad.Wall.Seconds()/g.Wall.Seconds(), "firmware-penalty-x")
	}
}

// BenchmarkAblationCollateralCache measures the TDX "check" phase with
// and without collateral caching, isolating the network share the
// paper identifies (the measured flow fetches on every check).
func BenchmarkAblationCollateralCache(b *testing.B) {
	c := sharedCluster(b)
	for i := 0; i < b.N; i++ {
		ta, tv, err := c.TDXAttestation()
		if err != nil {
			b.Fatal(err)
		}
		cold, err := bench.Attestation(context.Background(), tee.KindTDX, ta, tv, 3)
		if err != nil {
			b.Fatal(err)
		}
		ta2, tv2, err := c.TDXAttestation()
		if err != nil {
			b.Fatal(err)
		}
		cached, ok := tv2.(*dcap.Verifier)
		if !ok {
			b.Fatal("TDX verifier has unexpected type")
		}
		cached.CacheCollateral = true
		warm, err := bench.Attestation(context.Background(), tee.KindTDX, ta2, cached, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cold.CheckMs.Mean, "check-uncached-ms")
		b.ReportMetric(warm.CheckMs.Mean, "check-cached-ms")
	}
}

// BenchmarkColocation runs the §VI future-work extension: probe
// latency versus co-located confidential VM count on the TDX host.
func BenchmarkColocation(b *testing.B) {
	c := sharedCluster(b)
	backend, err := c.Backend(tee.KindTDX)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.CoLocation(context.Background(), backend, c.Catalog(), bench.CoLocationOptions{Tenants: 4, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.VsSingle, "slowdown-at-4-tenants")
	}
}

// BenchmarkGatewayInvoke measures the full REST path: gateway → host
// relay → guest agent → launcher → TEE-priced execution.
func BenchmarkGatewayInvoke(b *testing.B) {
	c := sharedCluster(b)
	fn := faas.Function{Name: "bench-gw", Language: "go", Workload: "factors"}
	// The benchmark body re-runs during b.N calibration; tolerate the
	// function already being registered.
	if err := c.Client().Upload(context.Background(), fn); err != nil && !strings.Contains(err.Error(), "already registered") {
		b.Fatal(err)
	}
	req := api.InvokeRequest{Function: "bench-gw", Secure: true, TEE: tee.KindTDX, Scale: 5040}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Client().Invoke(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWasmVM measures the Wasm substrate's interpreter throughput
// (instructions retired per benchmark iteration on the fib kernel).
func BenchmarkWasmVM(b *testing.B) {
	mod, err := wasmvm.BuildBenchModule()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := wasmvm.NewInstance(mod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Fuel = wasmvm.DefaultFuel
		if _, err := inst.Invoke("fib", 20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inst.Stats().Instructions)/float64(b.N), "wasm-instrs/op")
}

// BenchmarkMiniDBSpeedtest measures the embedded SQL engine running
// the full speedtest suite at a small size.
func BenchmarkMiniDBSpeedtest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := minidb.NewSpeedTest(10)
		if _, err := st.Run(meter.NewContext()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLInference measures one MobileNet-style classification.
func BenchmarkMLInference(b *testing.B) {
	model, err := mlinfer.NewMobileNet(mlinfer.MobileNetConfig{InputSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	raw := mlinfer.GenerateImage(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := meter.NewContext()
		img, err := mlinfer.DecodeAndResize(m, raw, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := model.Classify(m, img, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionContainers exercises the §V/§VI extension point:
// confidential containers as an additional execution-unit type. The
// reported metric compares the confidential container's I/O time to
// the confidential VM's on the same TDX host — the "unpractical"
// overhead the paper references.
func BenchmarkExtensionContainers(b *testing.B) {
	c := sharedCluster(b)
	inner, err := c.Backend(tee.KindTDX)
	if err != nil {
		b.Fatal(err)
	}
	ccBackend, err := container.NewBackend(inner, container.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fn := faas.Function{Name: "probe", Language: "go", Workload: "iostress"}
	for i := 0; i < b.N; i++ {
		ccPair, err := vm.NewPair(ccBackend, tee.GuestConfig{MemoryMB: 8}, c.Catalog())
		if err != nil {
			b.Fatal(err)
		}
		vmPair, err := c.Pair(tee.KindTDX)
		if err != nil {
			_ = ccPair.Stop()
			b.Fatal(err)
		}
		cc, err := ccPair.Secure.InvokeFunction(context.Background(), fn, 4)
		if err != nil {
			_ = ccPair.Stop()
			b.Fatal(err)
		}
		vmRes, err := vmPair.Secure.InvokeFunction(context.Background(), fn, 4)
		if err != nil {
			_ = ccPair.Stop()
			b.Fatal(err)
		}
		b.ReportMetric(cc.Wall.Seconds()/vmRes.Wall.Seconds(), "container-vs-vm-x")
		if err := ccPair.Stop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireTransportInvoke runs one synchronous invoke per
// iteration through the full pipeline — client, gateway, guest server —
// once per hop carrier. The gated form of this comparison is the repo
// benchmark's relay-small workload (BENCHMARK.json).
func BenchmarkWireTransportInvoke(b *testing.B) {
	for _, transport := range []string{"httpjson", "binary"} {
		b.Run(transport, func(b *testing.B) {
			c, err := confbench.New(
				confbench.WithTEEs(confbench.KindSEV),
				confbench.WithSeed(7),
				confbench.WithGuestMemoryMB(8),
				confbench.WithTransport(transport),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			client := c.Client()
			if err := client.Upload(ctx, confbench.Function{Name: "wirebench", Language: "go", Workload: "fib"}); err != nil {
				b.Fatal(err)
			}
			req := api.InvokeRequest{Function: "wirebench", Scale: 5}
			// One warm-up invoke keeps pool spin-up off the clock.
			if _, err := client.Invoke(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "invokes/s")
		})
	}
}
