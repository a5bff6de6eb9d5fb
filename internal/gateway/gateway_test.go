package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/faas"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/wire"
)

// testDeployment boots a gateway over TDX and SEV host agents.
func testDeployment(t *testing.T, policy func() Policy) (*Gateway, *api.Client) {
	t.Helper()
	// A fresh registry per deployment keeps metric assertions isolated
	// from other tests sharing the process-wide default.
	g := New(Config{Policy: policy, PlaneConfig: door.PlaneConfig{Obs: obs.New()}})

	tdxBackend, err := tdx.NewBackend(tdx.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	tdxAgent, err := hostagent.NewAgent(hostagent.AgentConfig{
		Name: "tdx-host", Backend: tdxBackend, Guest: tee.GuestConfig{MemoryMB: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tdxAgent.Close() })

	sevBackend, err := sev.NewBackend(sev.Options{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	sevAgent, err := hostagent.NewAgent(hostagent.AgentConfig{
		Name: "sev-host", Backend: sevBackend, Guest: tee.GuestConfig{MemoryMB: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sevAgent.Close() })

	g.AddHost("tdx-host", tdxAgent.Endpoints())
	g.AddHost("sev-host", sevAgent.Endpoints())
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	return g, mustClient(t, url)
}

func uploadFn(t *testing.T, c *api.Client, name, lang, workload string) {
	t.Helper()
	if err := c.Upload(context.Background(), faas.Function{Name: name, Language: lang, Workload: workload}); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndInvoke(t *testing.T) {
	_, client := testDeployment(t, nil)
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	uploadFn(t, client, "hot", "python", "cpustress")

	resp, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "hot", Secure: true, TEE: tee.KindTDX, Scale: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Secure || resp.Platform != tee.KindTDX || resp.Host != "tdx-host" {
		t.Errorf("response = %+v", resp)
	}
	if resp.Wall() <= 0 || resp.Output == "" {
		t.Errorf("missing result data: %+v", resp)
	}

	normal, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "hot", Secure: false, TEE: tee.KindSEV, Scale: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if normal.Secure || normal.Platform != tee.KindNone {
		t.Errorf("normal response = %+v", normal)
	}
}

func TestInvokeWithoutTEEUsesAnyNormalPool(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	resp, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Secure {
		t.Error("defaulted to a secure VM")
	}
}

func TestSecureWithoutTEERejected(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true}); err == nil {
		t.Error("secure invoke without TEE kind accepted")
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	_, client := testDeployment(t, nil)
	if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "ghost", TEE: tee.KindTDX}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestInvokeUnknownTEE(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindCCA}); err == nil {
		t.Error("unregistered TEE accepted")
	}
}

func TestUploadValidation(t *testing.T) {
	_, client := testDeployment(t, nil)
	if err := client.Upload(context.Background(), faas.Function{Name: "x", Language: "cobol", Workload: "w"}); err == nil {
		t.Error("unknown language accepted")
	}
	uploadFn(t, client, "dup", "go", "factors")
	err := client.Upload(context.Background(), faas.Function{Name: "dup", Language: "go", Workload: "factors"})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate upload: %v", err)
	}
}

func TestFunctionListing(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "b-fn", "go", "factors")
	uploadFn(t, client, "a-fn", "lua", "fib")
	names, err := client.Functions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a-fn" || names[1] != "b-fn" {
		t.Errorf("functions = %v", names)
	}
}

func TestPoolsEndpoint(t *testing.T) {
	_, client := testDeployment(t, nil)
	pools, err := client.Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 2 {
		t.Fatalf("pools = %+v", pools)
	}
	for _, p := range pools {
		if p.Endpoints != 2 {
			t.Errorf("pool %s endpoints = %d", p.TEE, p.Endpoints)
		}
		if p.Policy != "round-robin" {
			t.Errorf("pool %s policy = %s", p.TEE, p.Policy)
		}
	}
}

func TestAttestViaGateway(t *testing.T) {
	_, client := testDeployment(t, nil)
	resp, err := client.Attest(context.Background(), api.AttestRequest{TEE: tee.KindSEV, Nonce: []byte("n")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Evidence) == 0 {
		t.Error("no evidence returned")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 1000})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	rr := &RoundRobin{}
	entries := []*Entry{{Host: "a"}, {Host: "b"}, {Host: "c"}}
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		seen[rr.Pick(entries)]++
	}
	for i := range entries {
		if seen[i] != 3 {
			t.Errorf("entry %d picked %d times", i, seen[i])
		}
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	ll := LeastLoaded{}
	entries := []*Entry{{Host: "a"}, {Host: "b"}, {Host: "c"}}
	entries[0].inFlight.Store(5)
	entries[2].inFlight.Store(3)
	if got := ll.Pick(entries); got != 1 {
		t.Errorf("picked %d, want 1 (zero load)", got)
	}
	entries[1].inFlight.Store(9)
	if got := ll.Pick(entries); got != 2 {
		t.Errorf("picked %d, want 2 (load 3)", got)
	}
}

func TestPoolAcquireRelease(t *testing.T) {
	p := NewPool(tee.KindTDX, nil, obs.New())
	p.Add("h", hostagent.Endpoint{Addr: "1.2.3.4:1", Secure: true, TEE: tee.KindTDX})
	p.Add("h", hostagent.Endpoint{Addr: "1.2.3.4:2", Secure: false, TEE: tee.KindTDX})

	e, err := p.Acquire(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Entry.Endpoint.Secure {
		t.Error("acquired wrong endpoint")
	}
	if p.InFlight() != 1 {
		t.Errorf("in-flight = %d", p.InFlight())
	}
	p.Release(e)
	if p.InFlight() != 0 {
		t.Errorf("in-flight after release = %d", p.InFlight())
	}
	p.Release(nil) // must not panic
}

// lastPolicy is a Policy from outside the package's two: it picks the
// last candidate and remembers how many it was offered.
type lastPolicy struct{ offered int }

func (*lastPolicy) Name() string { return "last" }

func (l *lastPolicy) Pick(candidates []*Entry) int {
	l.offered = len(candidates)
	return len(candidates) - 1
}

// TestPoolForeignPolicySeesEveryCandidate: a pool with more matching
// endpoints than acquire's stack array holds hands a custom policy all
// of them, in pool order.
func TestPoolForeignPolicySeesEveryCandidate(t *testing.T) {
	pol := &lastPolicy{}
	p := NewPool(tee.KindTDX, pol, obs.New())
	const n = maxStackCandidates + 3
	for i := 0; i < n; i++ {
		p.Add(fmt.Sprintf("h%d", i), hostagent.Endpoint{Addr: fmt.Sprintf("1.2.3.4:%d", i), Secure: true, TEE: tee.KindTDX})
	}
	co, err := p.Acquire(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Release()
	if pol.offered != n || co.Entry.Host != fmt.Sprintf("h%d", n-1) {
		t.Errorf("policy offered %d candidates and picked %s, want %d and h%d", pol.offered, co.Entry.Host, n, n-1)
	}
}

func TestPoolAcquireNoMatch(t *testing.T) {
	p := NewPool(tee.KindTDX, nil, obs.New())
	p.Add("h", hostagent.Endpoint{Addr: "x", Secure: false, TEE: tee.KindTDX})
	if _, err := p.Acquire(context.Background(), true); err == nil {
		t.Error("no secure endpoint but Acquire succeeded")
	}
}

func TestLeastLoadedGatewayConfig(t *testing.T) {
	_, client := testDeployment(t, func() Policy { return LeastLoaded{} })
	pools, err := client.Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pools {
		if p.Policy != "least-loaded" {
			t.Errorf("policy = %s", p.Policy)
		}
	}
}

func TestGatewayDoubleStartFails(t *testing.T) {
	g := New(Config{})
	if _, err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start should fail")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	for i := 0; i < 3; i++ {
		if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: false, TEE: tee.KindSEV, Scale: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "ghost", TEE: tee.KindTDX}); err == nil {
		t.Fatal("expected error for unknown function")
	}
	if _, err := client.Attest(context.Background(), api.AttestRequest{TEE: tee.KindSEV, Nonce: []byte("n")}); err != nil {
		t.Fatal(err)
	}

	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Invocations != 4 {
		t.Errorf("invocations = %d, want 4", m.Invocations)
	}
	if m.Errors == 0 {
		t.Error("errors not counted")
	}
	if m.Attestations != 1 {
		t.Errorf("attestations = %d", m.Attestations)
	}
	if m.PerPool["tdx"] != 3 || m.PerPool["sev-snp"] != 1 {
		t.Errorf("per-pool = %v", m.PerPool)
	}
	if m.UptimeSeconds <= 0 {
		t.Error("uptime missing")
	}
}

func TestInvokeDeadEndpointSurfacesUnavailable(t *testing.T) {
	// A pool whose endpoint points at a dead address must fail with a
	// gateway error, not hang or panic — the paper's hosts can go away.
	// Either carrier reads the refused connection as a retryable
	// unavailable (503) at the gateway.
	for _, carrier := range []string{wire.TransportHTTPJSON, wire.TransportBinary} {
		g := New(Config{Transport: carrier})
		g.AddHost("ghost-host", []hostagent.Endpoint{{
			Addr: "127.0.0.1:1", Secure: true, TEE: tee.KindTDX, VMName: "ghost",
		}})
		url, err := g.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		client := mustClient(t, url)
		uploadFn(t, client, "fn", "go", "factors")
		_, err = client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX})
		if cberr.CodeOf(err) != cberr.CodeUnavailable || cberr.LayerOf(err) != cberr.LayerGateway || !strings.Contains(err.Error(), "503") {
			t.Errorf("%s: dead endpoint error = %v, want unavailable/gateway (503)", carrier, err)
		}
		m, err := client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if m.Errors == 0 || m.Invocations != 0 {
			t.Errorf("%s: metrics after failure = %+v", carrier, m)
		}
	}
}

func TestInFlightReleasedOnFailure(t *testing.T) {
	g := New(Config{})
	g.AddHost("ghost-host", []hostagent.Endpoint{{
		Addr: "127.0.0.1:1", Secure: true, TEE: tee.KindTDX,
	}})
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	client := mustClient(t, url)
	uploadFn(t, client, "fn", "go", "factors")
	for i := 0; i < 3; i++ {
		_, _ = client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX})
	}
	pools, err := client.Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pools[0].InFlight != 0 {
		t.Errorf("in-flight leaked: %+v", pools[0])
	}
}

func mustClient(t *testing.T, url string) *api.Client {
	t.Helper()
	c, err := api.New(url)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postRaw sends a raw body to the gateway and decodes the error
// envelope, bypassing the typed client so malformed payloads and wire
// fields can be asserted directly.
func postRaw(t *testing.T, url, path, body string) (int, api.ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return resp.StatusCode, e
}

func TestUnknownFunctionWireFormat(t *testing.T) {
	g, _ := testDeployment(t, nil)
	status, e := postRaw(t, g.BaseURL(), api.PathV1Invoke, `{"function":"ghost","tee":"tdx"}`)
	if status != http.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
	if e.Code != cberr.CodeNotFound || e.Error == "" {
		t.Errorf("envelope = %+v", e)
	}
}

func TestMissingPoolWireFormat(t *testing.T) {
	g, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	// CCA is not deployed in testDeployment.
	status, e := postRaw(t, g.BaseURL(), api.PathV1Invoke, `{"function":"fn","secure":true,"tee":"cca"}`)
	if status != http.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
	if e.Code != cberr.CodeNotFound || e.Layer != cberr.LayerPool {
		t.Errorf("envelope = %+v", e)
	}
	// The typed client must surface the same code.
	_, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindCCA})
	if cberr.CodeOf(err) != cberr.CodeNotFound {
		t.Errorf("client code = %q, want not_found", cberr.CodeOf(err))
	}
}

func TestMalformedJSONWireFormat(t *testing.T) {
	g, _ := testDeployment(t, nil)
	for _, path := range []string{api.PathV1Invoke, api.PathV1Functions, api.PathV1Attest} {
		status, e := postRaw(t, g.BaseURL(), path, `{"function":`)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, status)
		}
		if e.Code != cberr.CodeInvalid {
			t.Errorf("%s: code = %q, want invalid_request", path, e.Code)
		}
	}
}

// TestOversizeBodyRefused: the HTTP carrier caps request bodies where
// the binary one caps frames (wire.MaxPayload). A body past the cap is
// refused as invalid by the decode shell — never buffered and handed
// to the pipeline, which would answer not_found for its unknown
// function.
func TestOversizeBodyRefused(t *testing.T) {
	g, client := testDeployment(t, nil)
	body := `{"function":"` + strings.Repeat("a", 16<<20) + `"}`
	status, e := postRaw(t, g.BaseURL(), api.PathV1Invoke, body)
	if status != http.StatusBadRequest || e.Code != cberr.CodeInvalid || e.Layer != cberr.LayerGateway {
		// Not %+v: at the parent commit the message echoes the body.
		t.Errorf("oversize body = %d %s/%s, want 400 invalid_request/gateway", status, e.Code, e.Layer)
	}
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 1 {
		t.Errorf("errors = %d after one refused body, want 1", m.Errors)
	}
}

func TestCanceledContextBeforeInvoke(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := client.Invoke(ctx, api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX})
	if !errors.Is(err, cberr.ErrCanceled) {
		t.Errorf("err = %v, want cberr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
}

func TestCanceledUpstreamSurvivesWireHops(t *testing.T) {
	// A VM that reports a canceled invocation must keep its canceled
	// identity across both wire hops: guest → gateway → client.
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		err := cberr.Wrap(cberr.CodeCanceled, cberr.LayerVM, context.Canceled)
		api.WriteError(w, cberr.HTTPStatus(err), err)
	}))
	defer upstream.Close()

	g := New(Config{})
	g.AddHost("canceling-host", []hostagent.Endpoint{{
		Addr: strings.TrimPrefix(upstream.URL, "http://"), Secure: true, TEE: tee.KindTDX, VMName: "c",
	}})
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	client := mustClient(t, url)
	uploadFn(t, client, "fn", "go", "factors")

	_, err = client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX})
	if !errors.Is(err, cberr.ErrCanceled) {
		t.Errorf("err = %v, want cberr.ErrCanceled after two hops", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain after two hops", err)
	}
}
