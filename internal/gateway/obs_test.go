package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// getRaw fetches a path from the gateway and returns status and body.
func getRaw(t *testing.T, url, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestRouteCountersUseCanonicalV1Labels(t *testing.T) {
	// Requests from the typed client and from raw HTTP land on the same
	// counter, labeled with the /v1 route. The unversioned spelling is
	// gone: it gets the enveloped 404 and no counter of its own.
	g, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	req := api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 100}
	if _, err := client.Invoke(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	const body = `{"function":"fn","secure":true,"tee":"tdx","scale":100}`
	if status, _ := postRaw(t, g.BaseURL(), api.PathV1Invoke, body); status != http.StatusOK {
		t.Fatalf("raw invoke status = %d", status)
	}
	status, e := postRaw(t, g.BaseURL(), "/invoke", body)
	if status != http.StatusNotFound || e.Code != cberr.CodeNotFound || e.Layer != cberr.LayerGateway {
		t.Errorf("bare path = %d %+v, want an enveloped 404 not_found/gateway", status, e)
	}
	snap := g.Obs().Snapshot()
	id := obs.MetricID("confbench_http_requests_total", "route", api.PathV1Invoke, "status", "200")
	if got := snap.Counters[id]; got != 2 {
		t.Errorf("%s = %d, want 2", id, got)
	}
	if _, stray := snap.Counters[obs.MetricID("confbench_http_requests_total", "route", "/invoke", "status", "200")]; stray {
		t.Error("unversioned route leaked its own counter label")
	}
}

func TestObsEndpointReportsGatewayActivity(t *testing.T) {
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	const invokes = 5
	for i := 0; i < invokes; i++ {
		if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 100}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := client.Obs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters[obs.MetricID("confbench_http_requests_total", "route", api.PathV1Invoke, "status", "200")]; got != invokes {
		t.Errorf("invoke requests = %d, want %d", got, invokes)
	}
	if got := snap.Counters[obs.MetricID("confbench_pool_checkouts_total", "tee", "tdx")]; got != invokes {
		t.Errorf("tdx checkouts = %d, want %d", got, invokes)
	}
	if got := snap.Gauges[obs.MetricID("confbench_pool_occupancy", "tee", "tdx")]; got != 0 {
		t.Errorf("tdx occupancy after drain = %d, want 0", got)
	}
	h, ok := snap.Histograms[obs.MetricID("confbench_http_request_seconds", "route", api.PathV1Invoke)]
	if !ok || h.Count != invokes {
		t.Errorf("latency histogram = %+v, want count %d", h, invokes)
	}
	w, ok := snap.Histograms[obs.MetricID("confbench_pool_checkout_wait_seconds", "tee", "tdx")]
	if !ok || w.Count != invokes {
		t.Errorf("checkout wait histogram = %+v, want count %d", w, invokes)
	}
}

// TestHostsFederateOverTheRelayHop: every AddHost host is a sweep
// target scraped through its guest relay and merged under its host
// label next to the gateway's own; a host that does not answer is
// reported, and a removed one leaves the sweep.
func TestHostsFederateOverTheRelayHop(t *testing.T) {
	g, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "factors")
	if _, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 100}); err != nil {
		t.Fatal(err)
	}
	g.AddHost("dead-host", []hostagent.Endpoint{{Addr: "127.0.0.1:1", Secure: true, TEE: tee.KindCCA}})

	cs := g.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if want := []string{GatewayHostLabel, "sev-host", "tdx-host"}; fmt.Sprint(cs.Hosts) != fmt.Sprint(want) {
		t.Fatalf("hosts = %v, want %v", cs.Hosts, want)
	}
	if msg, ok := cs.ScrapeErrors["dead-host"]; !ok || !strings.HasPrefix(msg, "scrape dead-host: ") || len(cs.ScrapeErrors) != 1 {
		t.Fatalf("scrape errors = %v, want only dead-host", cs.ScrapeErrors)
	}
	// The agents run on the process-default registry, the gateway on its
	// own: the relay counter can only have arrived over the hop.
	found := false
	for id := range cs.Merged.Counters {
		family, labels := obs.ParseMetricID(id)
		found = found || (family == "confbench_relay_accepted_total" && labels["host"] == "tdx-host")
	}
	if !found {
		t.Error("no relay counter federated under host=tdx-host")
	}
	if s := g.Series().Get(obs.RateInvokesPerSec); s == nil || s.Len() != 1 {
		t.Error("the sweep did not record the invoke-rate series")
	}

	g.RemoveHost("dead-host")
	if cs := g.ScrapeOnce(context.Background(), time.Unix(101, 0)); len(cs.ScrapeErrors) != 0 {
		t.Errorf("removed host still swept: %v", cs.ScrapeErrors)
	}
}

func TestObsPrometheusContentType(t *testing.T) {
	g, _ := testDeployment(t, nil)
	resp, err := http.Get(g.BaseURL() + api.PathV1Obs)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	req, _ := http.NewRequest(http.MethodGet, g.BaseURL()+api.PathV1Obs+"?format=json", nil)
	jr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if ct := jr.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
}

func TestInvokeTraceSpansAcrossHop(t *testing.T) {
	// One traced invoke must yield a single tree rooted at the gateway
	// whose remote subtree (grafted across the HTTP hop to the host
	// agent) contributes the guest-side layers.
	_, client := testDeployment(t, nil)
	uploadFn(t, client, "fn", "go", "cpustress")

	resp, err := client.Invoke(context.Background(), api.InvokeRequest{
		Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 10_000, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("traced invoke returned no span tree")
	}
	if resp.Trace.Layer != "gateway" {
		t.Errorf("root layer = %q, want gateway", resp.Trace.Layer)
	}
	layers := resp.Trace.Layers()
	if len(layers) < 4 {
		t.Errorf("span tree covers %d layers (%v), want >= 4", len(layers), layers)
	}
	for _, want := range []string{"gateway", "pool", "hostagent", "vm"} {
		found := false
		for _, l := range layers {
			if l == want {
				found = true
			}
		}
		if !found {
			t.Errorf("layer %q missing from tree (got %v)", want, layers)
		}
	}
	// The host-agent subtree crossed the wire: it must carry a
	// positive duration measured on the guest side.
	remote := resp.Trace.FindLayer("hostagent")
	if remote == nil {
		t.Fatal("no hostagent span after graft")
	}
	if remote.DurNs <= 0 {
		t.Errorf("remote span duration = %d", remote.DurNs)
	}

	// Untraced invokes must stay trace-free on the wire.
	plain, err := client.Invoke(context.Background(), api.InvokeRequest{
		Function: "fn", Secure: true, TEE: tee.KindTDX, Scale: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced invoke carried a span tree")
	}
}
