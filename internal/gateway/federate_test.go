package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
)

// fakeHost serves a registry's snapshot at the guest obs path, the
// same endpoint a real host agent's relay exposes. Returns the
// server and its scrape address (host:port).
func fakeHost(t *testing.T, reg *obs.Registry) (*httptest.Server, string) {
	t.Helper()
	mux := http.NewServeMux()
	serveObs := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	}
	mux.HandleFunc(api.GuestV1Obs, serveObs)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, strings.TrimPrefix(srv.URL, "http://")
}

func TestScrapeOnceMergesMultipleHosts(t *testing.T) {
	regA, regB := obs.New(), obs.New()
	regA.Counter("confbench_relay_accepted_total", "vm", "tdx-secure").Add(7)
	regB.Counter("confbench_relay_accepted_total", "vm", "snp-secure").Add(11)
	_, addrA := fakeHost(t, regA)
	_, addrB := fakeHost(t, regB)

	gw := New(Config{Obs: obs.New()})
	gw.addScrapeTarget("host-b", "sev-snp", addrB) // registered out of order
	gw.addScrapeTarget("host-a", "tdx", addrA)

	cs := gw.ScrapeOnce(context.Background(), time.Unix(100, 0))
	wantHosts := []string{GatewayHostLabel, "host-a", "host-b"}
	if fmt.Sprint(cs.Hosts) != fmt.Sprint(wantHosts) {
		t.Fatalf("hosts = %v, want %v", cs.Hosts, wantHosts)
	}
	if len(cs.ScrapeErrors) != 0 {
		t.Fatalf("unexpected scrape errors: %v", cs.ScrapeErrors)
	}
	idA := obs.MetricID("confbench_relay_accepted_total", "host", "host-a", "vm", "tdx-secure")
	idB := obs.MetricID("confbench_relay_accepted_total", "host", "host-b", "vm", "snp-secure")
	if got := cs.Merged.Counters[idA]; got != 7 {
		t.Fatalf("%s = %d, want 7", idA, got)
	}
	if got := cs.Merged.Counters[idB]; got != 11 {
		t.Fatalf("%s = %d, want 11", idB, got)
	}
}

func TestScrapeFailureCountedNeverFatal(t *testing.T) {
	reg := obs.New()
	_, addr := fakeHost(t, obs.New())
	gw := New(Config{Obs: reg, ScrapeTimeout: 200 * time.Millisecond})
	gw.addScrapeTarget("alive", "tdx", addr)
	gw.addScrapeTarget("dead", "cca", "127.0.0.1:1") // nothing listens here

	cs := gw.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if _, ok := cs.ScrapeErrors["dead"]; !ok {
		t.Fatalf("dead host missing from ScrapeErrors: %v", cs.ScrapeErrors)
	}
	for _, h := range cs.Hosts {
		if h == "dead" {
			t.Fatalf("dead host listed as scraped: %v", cs.Hosts)
		}
	}
	failID := obs.MetricID("confbench_obs_scrape_failures_total", "host", "dead")
	if got := reg.Snapshot().Counters[failID]; got != 1 {
		t.Fatalf("%s = %d, want 1", failID, got)
	}
	// The healthy host's scrape still landed.
	found := false
	for _, h := range cs.Hosts {
		found = found || h == "alive"
	}
	if !found {
		t.Fatalf("alive host missing: %v", cs.Hosts)
	}
}

func TestScrapeFaultInjection(t *testing.T) {
	plane := faultplane.New(1)
	if err := plane.Register(faultplane.Spec{
		Point: faultplane.PointObsScrape, Kind: faultplane.KindError, Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	plane.SetObsRegistry(reg)
	_, addr := fakeHost(t, obs.New())
	gw := New(Config{Obs: reg, Faults: plane})
	gw.addScrapeTarget("victim", "tdx", addr)

	cs := gw.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if _, ok := cs.ScrapeErrors["victim"]; !ok {
		t.Fatalf("fault-injected scrape not surfaced: %v", cs.ScrapeErrors)
	}
	hist := plane.History()
	if len(hist) != 1 || hist[0].Point != faultplane.PointObsScrape {
		t.Fatalf("injection history = %+v, want one obs.scrape entry", hist)
	}
}

// TestWindowedRatePinnedBySyntheticInstants drives the scrape series
// with caller-supplied timestamps: the derived invoke rate must be an
// exact function of the recorded samples, run after run.
func TestWindowedRatePinnedBySyntheticInstants(t *testing.T) {
	gw := New(Config{Obs: obs.New()})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		gw.invocations.Add(10)
		gw.ScrapeOnce(context.Background(), t0.Add(time.Duration(i)*time.Second))
	}
	s := gw.Series().Get(obs.RateInvokesPerSec)
	if s == nil {
		t.Fatal("invoke-rate series missing")
	}
	// 5 samples, values 10..50 over 4s: (50-10)/4 = 10/s exactly.
	if got := s.Rate(5); got != 10 {
		t.Fatalf("Rate(5) = %v, want exactly 10", got)
	}
}

// TestScrapeWhileWorkersWrite federates a live registry while worker
// goroutines hammer it — the satellite -race coverage for the scrape
// path (run via `make race`).
func TestScrapeWhileWorkersWrite(t *testing.T) {
	live := obs.New()
	_, addr := fakeHost(t, live)
	gw := New(Config{Obs: obs.New()})
	gw.addScrapeTarget("busy", "tdx", addr)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := live.Counter("confbench_relay_accepted_total", "vm", fmt.Sprintf("vm-%d", w))
			h := live.Histogram("confbench_invoke_seconds", "tee", "tdx")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.ObserveExemplar(time.Duration(i%7)*time.Millisecond, fmt.Sprintf("inv-%d-%d", w, i))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		cs := gw.ScrapeOnce(context.Background(), time.Unix(int64(1000+i), 0))
		if len(cs.ScrapeErrors) != 0 {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d failed: %v", i, cs.ScrapeErrors)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTelemetrySpillSpansRestart drives a gateway with a DurableDir
// through sweeps and recorded events, closes it, and asserts a second
// gateway on the same directory serves the pre-restart windowed rate
// and flight-recorder events.
func TestTelemetrySpillSpansRestart(t *testing.T) {
	dir := t.TempDir()

	gw := New(Config{Obs: obs.New(), DurableDir: dir})
	if _, err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// A growing invoke count over three synthetic sweeps.
	for i := 1; i <= 3; i++ {
		gw.invocations.Add(10)
		gw.ScrapeOnce(context.Background(), time.Unix(int64(100+i), 0))
	}
	gw.recorder.Record(obs.Event{Trace: "inv-1", Function: "pyaes", TEE: "tdx"})
	gw.recorder.Record(obs.Event{Trace: "inv-2", Function: "chacha20", Code: "unavailable"})
	if err := gw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	gw2 := New(Config{Obs: obs.New(), DurableDir: dir})
	if _, err := gw2.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("restart Start: %v", err)
	}
	defer gw2.Close()
	s := gw2.Series().Get(obs.RateInvokesPerSec)
	if s == nil || s.Len() != 3 {
		t.Fatalf("replayed invoke series missing (len %d, want 3)", s.Len())
	}
	if got := s.Rate(0); got != 10 {
		t.Fatalf("replayed invoke rate = %g, want 10", got)
	}
	evs := gw2.Recorder().Events()
	if len(evs) != 2 || evs[0].Trace != "inv-1" || evs[1].Trace != "inv-2" {
		t.Fatalf("replayed events = %+v", evs)
	}
	// The restarted gateway's own sweeps extend the recovered series:
	// the fresh invocations counter restarts at zero, and the reset
	// step is skipped rather than zeroing the window.
	gw2.invocations.Add(5)
	gw2.ScrapeOnce(context.Background(), time.Unix(110, 0))
	gw2.ScrapeOnce(context.Background(), time.Unix(111, 0))
	if s := gw2.Series().Get(obs.RateInvokesPerSec); s.Len() != 5 {
		t.Fatalf("series after restart sweeps has %d samples, want 5", s.Len())
	} else if got := s.Rate(0); got <= 0 {
		t.Fatalf("restart-spanning rate = %g, want positive", got)
	}
}

// TestObsEventsServerSideFilters drives GET /v1/obs/events through
// the api client: ?err=1, ?trace=, and ?limit= filter on the gateway,
// compose, and reject a malformed limit with 400.
func TestObsEventsServerSideFilters(t *testing.T) {
	gw := New(Config{Obs: obs.New()})
	for i := 1; i <= 5; i++ {
		ev := obs.Event{Trace: fmt.Sprintf("inv-%d", i), Function: "fn"}
		if i%2 == 0 {
			ev.Error = "boom"
		}
		gw.Recorder().Record(ev)
	}
	url, err := gw.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	client, err := api.New(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	all, err := client.ObsEvents(ctx)
	if err != nil || len(all) != 5 {
		t.Fatalf("unfiltered events = %d, %v; want all 5", len(all), err)
	}
	failed, err := client.ObsEventsWhere(ctx, api.EventsQuery{ErrOnly: true})
	if err != nil || len(failed) != 2 {
		t.Fatalf("err-only events = %d, %v; want 2", len(failed), err)
	}
	for _, ev := range failed {
		if ev.Error == "" {
			t.Errorf("err-only returned clean event %+v", ev)
		}
	}
	newest, err := client.ObsEventsWhere(ctx, api.EventsQuery{Limit: 2})
	if err != nil || len(newest) != 2 || newest[0].Trace != "inv-4" || newest[1].Trace != "inv-5" {
		t.Fatalf("limit=2 events = %+v, %v; want the newest two in order", newest, err)
	}
	one, err := client.ObsEventsWhere(ctx, api.EventsQuery{Trace: "inv-3"})
	if err != nil || len(one) != 1 || one[0].Trace != "inv-3" {
		t.Fatalf("trace=inv-3 events = %+v, %v", one, err)
	}
	composed, err := client.ObsEventsWhere(ctx, api.EventsQuery{ErrOnly: true, Limit: 1})
	if err != nil || len(composed) != 1 || composed[0].Trace != "inv-4" {
		t.Fatalf("composed filter = %+v, %v; want just inv-4", composed, err)
	}
	if none, err := client.ObsEventsWhere(ctx, api.EventsQuery{Trace: "inv-99"}); err != nil || len(none) != 0 {
		t.Fatalf("missing trace = %+v, %v; want empty", none, err)
	}

	resp, err := http.Get(url + "/v1/obs/events?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed limit status = %d, want 400", resp.StatusCode)
	}

	// Without objectives the SLO endpoints serve empty lists, not
	// errors — the CLI degrades gracefully against them.
	if sts, err := client.SLOStatus(ctx); err != nil || len(sts) != 0 {
		t.Fatalf("no-SLO gateway status = %+v, %v; want empty", sts, err)
	}
	if trs, err := client.Alerts(ctx); err != nil || len(trs) != 0 {
		t.Fatalf("no-SLO gateway alerts = %+v, %v; want empty", trs, err)
	}
}
