package confbench_test

import (
	"context"
	"testing"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/bench"
	"confbench/internal/faas"
	"confbench/internal/tee"
)

func newCluster(t *testing.T, opts ...confbench.Option) *confbench.Cluster {
	t.Helper()
	c, err := confbench.New(append([]confbench.Option{confbench.WithGuestMemoryMB(8)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClusterBootsAllThreeTEEs(t *testing.T) {
	c := newCluster(t)
	kinds := c.Kinds()
	if len(kinds) != 3 {
		t.Fatalf("kinds = %v", kinds)
	}
	for _, k := range kinds {
		if _, err := c.Backend(k); err != nil {
			t.Errorf("backend %s: %v", k, err)
		}
		if _, err := c.Agent(k); err != nil {
			t.Errorf("agent %s: %v", k, err)
		}
		pair, err := c.Pair(k)
		if err != nil {
			t.Errorf("pair %s: %v", k, err)
			continue
		}
		if !pair.Secure.Secure() || pair.Normal.Secure() {
			t.Errorf("%s pair flags wrong", k)
		}
	}
	if _, err := c.Backend(tee.Kind("sgx")); err == nil {
		t.Error("unknown backend lookup should fail")
	}
}

func TestClusterSubsetDeployment(t *testing.T) {
	c := newCluster(t, confbench.WithTEEs(tee.KindSEV))
	if len(c.Kinds()) != 1 || c.Kinds()[0] != tee.KindSEV {
		t.Errorf("kinds = %v", c.Kinds())
	}
	// No TDX → no DCAP stack.
	if _, _, err := c.TDXAttestation(); err == nil {
		t.Error("TDX attestation should be unavailable")
	}
	if _, _, err := c.SEVAttestation(); err != nil {
		t.Errorf("SEV attestation: %v", err)
	}
}

func TestEndToEndThroughGateway(t *testing.T) {
	c := newCluster(t)
	client := c.Client()
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	fn := faas.Function{Name: "probe", Language: "lua", Workload: "factors"}
	if err := client.Upload(context.Background(), fn); err != nil {
		t.Fatal(err)
	}
	for _, k := range c.Kinds() {
		s, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "probe", Secure: true, TEE: k, Scale: 5040})
		if err != nil {
			t.Fatalf("%s secure invoke: %v", k, err)
		}
		n, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "probe", Secure: false, TEE: k, Scale: 5040})
		if err != nil {
			t.Fatalf("%s normal invoke: %v", k, err)
		}
		if s.Output != n.Output {
			t.Errorf("%s outputs differ: %q vs %q", k, s.Output, n.Output)
		}
		if s.WallNs <= 0 || n.WallNs <= 0 {
			t.Errorf("%s missing timings", k)
		}
	}
	pools, err := client.Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 3 {
		t.Errorf("pools = %+v", pools)
	}
}

func TestUploadCatalog(t *testing.T) {
	c := newCluster(t, confbench.WithTEEs(tee.KindTDX))
	if err := c.UploadCatalog(context.Background(), []string{"go", "wasm"}); err != nil {
		t.Fatal(err)
	}
	names, err := c.Client().Functions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := c.Catalog().Len() * 2
	if len(names) != want {
		t.Errorf("uploaded %d functions, want %d", len(names), want)
	}
	resp, err := c.Client().Invoke(context.Background(), api.InvokeRequest{
		Function: "fib-go", Secure: true, TEE: tee.KindTDX, Scale: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "fib(12)=144" {
		t.Errorf("output = %q", resp.Output)
	}
}

func TestClusterAttestationFlows(t *testing.T) {
	c := newCluster(t)

	ta, tv, err := c.TDXAttestation()
	if err != nil {
		t.Fatal(err)
	}
	tdxRes, err := bench.Attestation(context.Background(), tee.KindTDX, ta, tv, 2)
	if err != nil {
		t.Fatal(err)
	}
	sa, sv, err := c.SEVAttestation()
	if err != nil {
		t.Fatal(err)
	}
	sevRes, err := bench.Attestation(context.Background(), tee.KindSEV, sa, sv, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sevRes.AttestMs.Mean >= tdxRes.AttestMs.Mean || sevRes.CheckMs.Mean >= tdxRes.CheckMs.Mean {
		t.Errorf("Fig. 5 shape violated: TDX %.0f/%.0f ms, SEV %.0f/%.0f ms",
			tdxRes.AttestMs.Mean, tdxRes.CheckMs.Mean, sevRes.AttestMs.Mean, sevRes.CheckMs.Mean)
	}
	if c.PCS() == nil || c.PCS().Requests() == 0 {
		t.Error("TDX verification did not hit the PCS")
	}
}

func TestBuggyFirmwareCluster(t *testing.T) {
	good := newCluster(t, confbench.WithTEEs(tee.KindTDX))
	bad := newCluster(t, confbench.WithTEEs(tee.KindTDX), confbench.WithTDXFirmware("TDX_1.5.00.41.610"))
	fn := faas.Function{Name: "probe", Language: "go", Workload: "cpustress"}
	for _, c := range []*confbench.Cluster{good, bad} {
		if err := c.Client().Upload(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}
	req := api.InvokeRequest{Function: "probe", Secure: true, TEE: tee.KindTDX, Scale: 50_000}
	g, err := good.Client().Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bad.Client().Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(b.WallNs) / float64(g.WallNs)
	if ratio < 5 {
		t.Errorf("buggy firmware speedup factor = %.1f, paper reports ≈10x", ratio)
	}
}

func TestCCARealmsCannotAttest(t *testing.T) {
	c := newCluster(t, confbench.WithTEEs(tee.KindCCA))
	_, err := c.Client().Attest(context.Background(), api.AttestRequest{TEE: tee.KindCCA, Nonce: []byte("n")})
	if err == nil {
		t.Error("CCA attestation should fail: the FVP lacks hardware support (§IV-B)")
	}
}
