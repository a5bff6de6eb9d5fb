package confbench_test

import (
	"bytes"
	"context"
	"strings"
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
	if _, err := bench.Attestation(context.Background(), tee.KindTDX, ta, tv, 2); err != nil {
		t.Fatal(err)
	}
	sa, sv, err := c.SEVAttestation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Attestation(context.Background(), tee.KindSEV, sa, sv, 2); err != nil {
		t.Fatal(err)
	}
	if c.PCS() == nil || c.PCS().Requests() == 0 {
		t.Error("TDX verification did not hit the PCS")
	}
}

func TestCCARealmsCannotAttest(t *testing.T) {
	c := newCluster(t, confbench.WithTEEs(tee.KindCCA))
	_, err := c.Client().Attest(context.Background(), api.AttestRequest{TEE: tee.KindCCA, Nonce: []byte("n")})
	if err == nil {
		t.Error("CCA attestation should fail: the FVP lacks hardware support (§IV-B)")
	}
}

func TestNewWithOptions(t *testing.T) {
	reg := confbench.NewObsRegistry()
	c, err := confbench.New(
		confbench.WithTEEs(confbench.KindSEV),
		confbench.WithSeed(7),
		confbench.WithGuestMemoryMB(8),
		confbench.WithWorkers(4),
		confbench.WithLeastLoaded(),
		confbench.WithObsRegistry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Kinds(); len(got) != 1 || got[0] != confbench.KindSEV {
		t.Errorf("kinds = %v", got)
	}
	if c.Workers() != 4 {
		t.Errorf("workers = %d", c.Workers())
	}
	if c.Obs() != reg {
		t.Error("cluster not using the supplied registry")
	}
	pools, err := c.Client().Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pools[0].Policy != "least-loaded" {
		t.Errorf("policy = %s", pools[0].Policy)
	}
}

func TestRootReexportsAreUsableEndToEnd(t *testing.T) {
	// The re-exported aliases must interoperate with values produced by
	// the internal packages — the quickstart example depends on it.
	c, err := confbench.New(
		confbench.WithTEEs(confbench.KindTDX),
		confbench.WithGuestMemoryMB(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var client *confbench.Client = c.Client()
	fn := confbench.Function{Name: "alias", Language: "python", Workload: "factors"}
	if err := client.Upload(ctx, fn); err != nil {
		t.Fatal(err)
	}
	var resp confbench.InvokeResponse
	resp, err = client.Invoke(ctx, confbench.InvokeRequest{
		Function: "alias", Secure: true, TEE: confbench.KindTDX, Scale: 5040, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr *confbench.SpanData = resp.Trace
	if tr == nil {
		t.Fatal("no trace on traced invoke")
	}
	out := confbench.RenderTrace(tr)
	if !strings.Contains(out, "[gateway]") || !strings.Contains(out, "[vm]") {
		t.Errorf("rendered trace missing layers:\n%s", out)
	}
}

// TestPostmortemOnExhaustedRetry arms a whole-fleet exec fault so every
// dispatch attempt fails, fires one invoke, and asserts the flight
// recorder flushed a postmortem naming the invoke's trace ID and the
// fault points that killed it. The writer has to be in place before the
// invoke, which is why this is not a scenario. Both carriers: the fault
// points must survive the binary wire hop too.
func TestPostmortemOnExhaustedRetry(t *testing.T) {
	for _, transport := range []string{"httpjson", "binary"} {
		t.Run(transport, func(t *testing.T) { postmortemOnExhaustedRetry(t, transport) })
	}
}

func postmortemOnExhaustedRetry(t *testing.T, transport string) {
	plane := confbench.NewFaultPlane(42)
	if err := plane.Register(confbench.FaultSpec{Point: "hostagent.exec", Kind: "error", Probability: 1}); err != nil {
		t.Fatal(err)
	}
	// Two hosts: the retry onto the sibling burns the whole budget (the
	// fleet-wide fault kills it too), which triggers the postmortem flush.
	c := newCluster(t, confbench.WithTEEs(confbench.KindSEV), confbench.WithSeed(42),
		confbench.WithObsRegistry(confbench.NewObsRegistry()), confbench.WithFaultPlane(plane),
		confbench.WithHostsPerTEE(2), confbench.WithTransport(transport))
	var post bytes.Buffer
	c.Gateway().SetPostmortemWriter(&post)

	ctx := context.Background()
	client := c.Client()
	if err := client.Upload(ctx, confbench.Function{Name: "doomed", Language: "go", Workload: "cpustress"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(ctx, confbench.InvokeRequest{
		Function: "doomed", Secure: true, TEE: confbench.KindSEV, Scale: 1,
	}); err == nil {
		t.Fatal("invoke succeeded despite a 1.0 exec error spec")
	}
	// The api.Client retries retryable failures, so one logical invoke
	// may record several gateway dispatches — every one exhausted.
	evs, err := client.ObsEvents(ctx)
	if err != nil || len(evs) == 0 {
		t.Fatalf("flight recorder after a failed invoke: %d events, %v", len(evs), err)
	}
	ev := evs[len(evs)-1]
	if ev.Error == "" || ev.Code == "" || ev.Retries == 0 {
		t.Fatalf("exhausted invoke recorded without error, code or retries: %+v", ev)
	}
	if !strings.Contains(strings.Join(ev.FaultPoints, " "), "hostagent.exec:error") {
		t.Fatalf("event fault points %v missing hostagent.exec:error", ev.FaultPoints)
	}
	for _, want := range []string{"confbench postmortem:", ev.Trace, "hostagent.exec:error"} {
		if !strings.Contains(post.String(), want) {
			t.Fatalf("postmortem %q does not name %q", post.String(), want)
		}
	}
}
