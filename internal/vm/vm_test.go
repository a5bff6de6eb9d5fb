package vm

import (
	"context"
	"errors"
	"testing"

	"confbench/internal/faas"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
)

func tdxPair(t testing.TB) Pair {
	t.Helper()
	b, err := tdx.NewBackend(tdx.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(b, tee.GuestConfig{Name: "t", MemoryMB: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pair.Stop() })
	return pair
}

func TestNewPairFlags(t *testing.T) {
	pair := tdxPair(t)
	if !pair.Secure.Secure() || pair.Normal.Secure() {
		t.Error("pair security flags wrong")
	}
	if pair.Secure.Platform() != tee.KindTDX || pair.Normal.Platform() != tee.KindNone {
		t.Errorf("platforms = %v / %v", pair.Secure.Platform(), pair.Normal.Platform())
	}
	if len(pair.Secure.Languages()) != 7 {
		t.Errorf("languages = %v", pair.Secure.Languages())
	}
}

// noNormal is a backend whose normal guests never launch.
type noNormal struct{ tee.Backend }

func (noNormal) LaunchNormal(tee.GuestConfig) (tee.Guest, error) {
	return nil, errors.New("no normal guest")
}

// TestAssemblePairReleasesSecureOnFailure: when the normal half of a
// pair cannot launch, the secure guest goes back to whoever supplied
// it (a warm pool takes it back), and no pair is returned.
func TestAssemblePairReleasesSecureOnFailure(t *testing.T) {
	b, err := tdx.NewBackend(tdx.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tee.GuestConfig{Name: "t", MemoryMB: 8}
	secure, err := b.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var released tee.Guest
	pair, err := AssemblePair(noNormal{b}, cfg, nil, secure, func(g tee.Guest) { released = g })
	if err == nil || pair.Secure != nil || released != secure {
		t.Fatalf("AssemblePair = %+v, %v; released %v, want an error and the secure guest released", pair, err, released)
	}
}

func TestInvokeFunction(t *testing.T) {
	pair := tdxPair(t)
	fn := faas.Function{Name: "f", Language: "python", Workload: "factors"}
	res, err := pair.Secure.InvokeFunction(context.Background(), fn, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" || res.Wall <= 0 {
		t.Errorf("result = %+v", res)
	}
	if !res.Secure || res.Platform != tee.KindTDX {
		t.Errorf("flags = %+v", res)
	}
	if res.Perf.Monitor != "perf-stat" {
		t.Errorf("monitor = %s", res.Perf.Monitor)
	}
	if res.Bootstrap <= 0 {
		t.Error("bootstrap time not reported")
	}
}

func TestInvokeFunctionUnknownLanguage(t *testing.T) {
	pair := tdxPair(t)
	fn := faas.Function{Name: "f", Language: "perl", Workload: "factors"}
	if _, err := pair.Secure.InvokeFunction(context.Background(), fn, 1); !errors.Is(err, ErrNoLauncher) {
		t.Errorf("unknown language: %v", err)
	}
}

func TestIOHeavySecureSlower(t *testing.T) {
	pair := tdxPair(t)
	fn := faas.Function{Name: "f", Language: "go", Workload: "iostress"}
	var sSum, nSum float64
	for i := 0; i < 5; i++ {
		s, err := pair.Secure.InvokeFunction(context.Background(), fn, 2)
		if err != nil {
			t.Fatal(err)
		}
		n, err := pair.Normal.InvokeFunction(context.Background(), fn, 2)
		if err != nil {
			t.Fatal(err)
		}
		sSum += s.Wall.Seconds()
		nSum += n.Wall.Seconds()
	}
	if sSum <= nSum {
		t.Errorf("I/O in TD should cost more: %v vs %v", sSum, nSum)
	}
}

func TestRunMetered(t *testing.T) {
	pair := tdxPair(t)
	lr, err := pair.RunMetered(context.Background(), "custom", func(_ context.Context, m *meter.Context) (string, error) {
		m.CPU(1_000_000)
		m.Touch(1 << 20)
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Output != "done" || lr.RunUsage[meter.CPUOps] != 1_000_000 || !lr.BootstrapUsage.IsZero() {
		t.Errorf("execution = %+v", lr)
	}
	s, n := pair.Price(context.Background(), lr, tee.NewKey("custom"))
	if s.Output != "done" || s.Wall <= 0 || n.Wall <= 0 || s.Bootstrap != 0 {
		t.Errorf("priced = %+v / %+v", s, n)
	}
	if !s.Secure || n.Secure || s.Platform != tee.KindTDX {
		t.Errorf("flags = %+v / %+v", s, n)
	}
}

func TestRunMeteredPropagatesError(t *testing.T) {
	pair := tdxPair(t)
	wantErr := errors.New("boom")
	if _, err := pair.RunMetered(context.Background(), "bad", func(context.Context, *meter.Context) (string, error) {
		return "", wantErr
	}); !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestPriceMonotone(t *testing.T) {
	pair := tdxPair(t)
	small, _ := pair.Price(context.Background(), faas.LaunchResult{RunUsage: meter.Usage{meter.CPUOps: 1_000_000}}, tee.NewKey("small"))
	large, _ := pair.Price(context.Background(), faas.LaunchResult{RunUsage: meter.Usage{meter.CPUOps: 100_000_000}}, tee.NewKey("large"))
	if large.Wall <= small.Wall {
		t.Error("pricing not monotone in work")
	}
}

func TestStoppedVMRejectsWork(t *testing.T) {
	pair := tdxPair(t)
	if err := pair.Secure.Stop(); err != nil {
		t.Fatal(err)
	}
	fn := faas.Function{Name: "f", Language: "go", Workload: "factors"}
	if _, err := pair.Secure.InvokeFunction(context.Background(), fn, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("invoke after stop: %v", err)
	}
	if _, err := pair.Secure.Execute(context.Background(), fn, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("execute after stop: %v", err)
	}
	if _, err := pair.RunMetered(context.Background(), "x", nil); !errors.Is(err, ErrStopped) {
		t.Errorf("run after stop: %v", err)
	}
	if _, err := pair.Secure.AttestationReport(context.Background(), nil); !errors.Is(err, ErrStopped) {
		t.Errorf("attest after stop: %v", err)
	}
	if err := pair.Secure.Stop(); err != nil {
		t.Error("stop should be idempotent")
	}
}

func TestAttestationPassThrough(t *testing.T) {
	pair := tdxPair(t)
	ev, err := pair.Secure.AttestationReport(context.Background(), []byte("nonce"))
	if err != nil || len(ev) == 0 {
		t.Errorf("attest: %v", err)
	}
	if _, err := pair.Normal.AttestationReport(context.Background(), nil); !errors.Is(err, tee.ErrNotSecure) {
		t.Errorf("normal VM attest: %v", err)
	}
}

func TestCCAUsesScriptMonitor(t *testing.T) {
	b, err := cca.NewBackend(cca.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(b, tee.GuestConfig{MemoryMB: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Stop()
	fn := faas.Function{Name: "f", Language: "lua", Workload: "factors"}
	res, err := pair.Secure.InvokeFunction(context.Background(), fn, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.Monitor != "cca-script" {
		t.Errorf("realm monitor = %s", res.Perf.Monitor)
	}
	if res.Perf.Instructions != 0 {
		t.Error("realm perf should have no instruction counter")
	}
	// The normal VM in the FVP still has perf counters.
	nres, err := pair.Normal.InvokeFunction(context.Background(), fn, 100)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Perf.Monitor != "perf-stat" {
		t.Errorf("normal FVP monitor = %s", nres.Perf.Monitor)
	}
}

func TestSEVPairExits(t *testing.T) {
	b, err := sev.NewBackend(sev.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(b, tee.GuestConfig{MemoryMB: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Stop()
	// Context-switch-heavy metered work must produce VMEXITs in the
	// secure guest and none in the normal one.
	task := func(_ context.Context, m *meter.Context) (string, error) {
		m.Switch(10_000)
		m.Syscall(10_000)
		return "ok", nil
	}
	lr, err := pair.RunMetered(context.Background(), "switchy", task)
	if err != nil {
		t.Fatal(err)
	}
	s, n := pair.Price(context.Background(), lr, tee.NewKey("switchy"))
	if s.Perf.TEEExits == 0 {
		t.Error("secure guest recorded no exits")
	}
	if n.Perf.TEEExits != 0 {
		t.Errorf("normal guest recorded %d exits", n.Perf.TEEExits)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil guest accepted")
	}
}

// fibLaunch is one fib execution on the pair's launchers, unpriced.
func fibLaunch(tb testing.TB, pair Pair) faas.LaunchResult {
	tb.Helper()
	lr, err := pair.Execute(context.Background(), faas.Function{Name: "fib", Language: "go", Workload: "fib"}, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return lr
}

// BenchmarkPrice prices one fib launch result on the secure VM of a TDX
// pair, untraced: what every invoke pays after its body ran.
func BenchmarkPrice(b *testing.B) {
	pair := tdxPair(b)
	lr := fibLaunch(b, pair)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := pair.Secure.Price(ctx, lr, tee.NewKey("fib")); res.Wall <= 0 {
			b.Fatal("unpriced")
		}
	}
}
