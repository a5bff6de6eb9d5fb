package door

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/slo"
)

// newTestPlane builds a gateway-shaped plane (own registry merged as
// host="self").
func newTestPlane(cfg PlaneConfig) *Plane {
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	return NewPlane(cfg, "self", "host", slo.Scope{Label: "host", Match: "self"})
}

// registryTarget scrapes a live registry in-process.
func registryTarget(reg *obs.Registry) func(context.Context) (obs.Snapshot, error) {
	return func(context.Context) (obs.Snapshot, error) { return reg.Snapshot(), nil }
}

func servePlane(t *testing.T, p *Plane) string {
	t.Helper()
	url, err := p.Serve("127.0.0.1:0", Config{Layer: cberr.LayerGateway})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return url
}

func TestSweepMergesTargetsUnderTheKey(t *testing.T) {
	regA, regB := obs.New(), obs.New()
	regA.Counter("confbench_relay_accepted_total", "vm", "tdx-secure").Add(7)
	regB.Counter("confbench_relay_accepted_total", "vm", "snp-secure").Add(11)

	p := newTestPlane(PlaneConfig{})
	p.AddTarget("host-b", faultplane.Target{}, registryTarget(regB)) // registered out of order
	p.AddTarget("host-a", faultplane.Target{}, registryTarget(regA))
	p.AddTarget("host-a", faultplane.Target{}, registryTarget(regB)) // first registration wins

	cs := p.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if want := []string{"host-a", "host-b", "self"}; fmt.Sprint(cs.Hosts) != fmt.Sprint(want) {
		t.Fatalf("hosts = %v, want %v", cs.Hosts, want)
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

	p.RemoveTarget("host-a")
	if got := p.Targets(); fmt.Sprint(got) != "[host-b]" {
		t.Fatalf("targets after remove = %v", got)
	}
}

func TestScrapeFailureCountedNeverFatal(t *testing.T) {
	reg := obs.New()
	p := newTestPlane(PlaneConfig{Obs: reg})
	p.AddTarget("alive", faultplane.Target{}, registryTarget(obs.New()))
	p.AddTarget("dead", faultplane.Target{}, func(context.Context) (obs.Snapshot, error) {
		return obs.Snapshot{}, errors.New("connection refused")
	})

	cs := p.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if got := cs.ScrapeErrors["dead"]; got != "scrape dead: connection refused" {
		t.Fatalf("ScrapeErrors[dead] = %q", got)
	}
	if want := []string{"alive", "self"}; fmt.Sprint(cs.Hosts) != fmt.Sprint(want) {
		t.Fatalf("hosts = %v, want %v (the dead target unlisted, the live one scraped)", cs.Hosts, want)
	}
	failID := obs.MetricID("confbench_obs_scrape_failures_total", "host", "dead")
	if got := reg.Snapshot().Counters[failID]; got != 1 {
		t.Fatalf("%s = %d, want 1", failID, got)
	}
}

// TestWedgedTargetCostsOneTimeout: a target that never answers is cut
// off at the per-target timeout, reported and counted, and the sweep
// goes on to the next target.
func TestWedgedTargetCostsOneTimeout(t *testing.T) {
	reg := obs.New()
	p := newTestPlane(PlaneConfig{Obs: reg})
	p.timeout = 50 * time.Millisecond
	p.AddTarget("a-wedged", faultplane.Target{}, func(ctx context.Context) (obs.Snapshot, error) {
		<-ctx.Done()
		return obs.Snapshot{}, ctx.Err()
	})
	p.AddTarget("b-alive", faultplane.Target{}, registryTarget(obs.New()))

	start := time.Now()
	cs := p.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("sweep took %v with a 50ms per-target timeout", elapsed)
	}
	if _, ok := cs.ScrapeErrors["a-wedged"]; !ok {
		t.Fatalf("wedged target missing from ScrapeErrors: %v", cs.ScrapeErrors)
	}
	if want := []string{"b-alive", "self"}; fmt.Sprint(cs.Hosts) != fmt.Sprint(want) {
		t.Fatalf("hosts = %v, want %v", cs.Hosts, want)
	}
	failID := obs.MetricID("confbench_obs_scrape_failures_total", "host", "a-wedged")
	if got := reg.Snapshot().Counters[failID]; got != 1 {
		t.Fatalf("%s = %d, want 1", failID, got)
	}
}

func TestScrapeFaultInjection(t *testing.T) {
	faults := faultplane.New(1)
	if err := faults.Register(faultplane.Spec{
		Point: faultplane.PointObsScrape, Kind: faultplane.KindError, Host: "victim", Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	faults.SetObsRegistry(reg)
	p := newTestPlane(PlaneConfig{Obs: reg, Faults: faults})
	p.AddTarget("bystander", faultplane.Target{Host: "bystander"}, registryTarget(obs.New()))
	p.AddTarget("victim", faultplane.Target{TEE: "tdx", Host: "victim"}, registryTarget(obs.New()))

	cs := p.ScrapeOnce(context.Background(), time.Unix(100, 0))
	if _, ok := cs.ScrapeErrors["victim"]; !ok || len(cs.ScrapeErrors) != 1 {
		t.Fatalf("scrape errors = %v, want only the fault-injected victim", cs.ScrapeErrors)
	}
	hist := faults.History()
	if len(hist) != 1 || hist[0].Point != faultplane.PointObsScrape || hist[0].TEE != "tdx" {
		t.Fatalf("injection history = %+v, want one obs.scrape entry for the victim", hist)
	}
}

// TestWindowedRatePinnedBySyntheticInstants drives the scrape series
// with caller-supplied timestamps: the derived invoke rate must be an
// exact function of the recorded samples, run after run.
func TestWindowedRatePinnedBySyntheticInstants(t *testing.T) {
	p := newTestPlane(PlaneConfig{})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		p.invocations.Add(10)
		p.ScrapeOnce(context.Background(), t0.Add(time.Duration(i)*time.Second))
	}
	s := p.Series().Get(obs.RateInvokesPerSec)
	if s == nil {
		t.Fatal("invoke-rate series missing")
	}
	// 5 samples, values 10..50 over 4s: (50-10)/4 = 10/s exactly.
	if got := s.Rate(5); got != 10 {
		t.Fatalf("Rate(5) = %v, want exactly 10", got)
	}
}

// TestScrapeWhileWorkersWrite federates a live registry while worker
// goroutines hammer it — the -race coverage for the scrape path (run
// via `make race`).
func TestScrapeWhileWorkersWrite(t *testing.T) {
	live := obs.New()
	p := newTestPlane(PlaneConfig{})
	p.AddTarget("busy", faultplane.Target{}, registryTarget(live))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := live.Counter("confbench_relay_accepted_total", "vm", fmt.Sprintf("vm-%d", w))
			h := live.Histogram("confbench_invoke_seconds", "tee", "tdx")
			for i := 0; ; i++ {
				c.Inc()
				h.ObserveExemplar(time.Duration(i%7)*time.Millisecond, fmt.Sprintf("inv-%d-%d", w, i))
				p.CountInvoke("tdx")
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if cs := p.ScrapeOnce(context.Background(), time.Unix(int64(1000+i), 0)); len(cs.ScrapeErrors) != 0 {
			t.Errorf("scrape %d failed: %v", i, cs.ScrapeErrors)
			break
		}
	}
	close(stop)
	wg.Wait()
	m, _ := p.metrics(context.Background())
	if m.Invocations == 0 || m.PerPool["tdx"] != m.Invocations {
		t.Errorf("metrics = %+v, want every invocation under per_pool[tdx]", m)
	}
}

// TestTelemetrySpillSpansRestart drives a plane with a DurableDir
// through sweeps, recorded events and an alert transition, closes it,
// and asserts a second plane on the same directory serves the
// pre-restart windowed rate, events and alert timeline.
func TestTelemetrySpillSpansRestart(t *testing.T) {
	dir := t.TempDir()
	objectives, err := slo.ParseSpecs("avail:availability:success>=99%:short=1:long=1")
	if err != nil {
		t.Fatal(err)
	}
	boot := func() (*Plane, *obs.Registry) {
		reg := obs.New()
		p := newTestPlane(PlaneConfig{Obs: reg, DurableDir: dir, SLO: objectives})
		servePlane(t, p)
		return p, reg
	}

	p, reg := boot()
	bad := reg.Counter("confbench_http_requests_total", "route", api.PathV1Invoke, "status", "503")
	// A growing invoke count over three synthetic sweeps, every request
	// of the last one failing: the objective fires.
	for i := 1; i <= 3; i++ {
		p.invocations.Add(10)
		if i == 3 {
			bad.Add(10)
		}
		p.ScrapeOnce(context.Background(), time.Unix(int64(100+i), 0))
	}
	p.Recorder().Record(obs.Event{Trace: "inv-1", Function: "pyaes", TEE: "tdx"})
	p.Recorder().Record(obs.Event{Trace: "inv-2", Function: "chacha20", Code: "unavailable"})
	timeline := p.SLO().Timeline()
	if len(timeline) != 1 || timeline[0].To != slo.StateFiring {
		t.Fatalf("timeline = %+v, want one transition to firing", timeline)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, _ := boot()
	defer p2.Close()
	s := p2.Series().Get(obs.RateInvokesPerSec)
	if s == nil || s.Len() != 3 {
		t.Fatalf("replayed invoke series missing (len %d, want 3)", s.Len())
	}
	if got := s.Rate(0); got != 10 {
		t.Fatalf("replayed invoke rate = %g, want 10", got)
	}
	evs := p2.Recorder().Filter(obs.EventFilter{})
	if len(evs) != 3 || evs[1].Trace != "inv-1" || evs[2].Trace != "inv-2" {
		t.Fatalf("replayed events = %+v, want the transition then inv-1, inv-2", evs)
	}
	if got := p2.SLO().Timeline(); fmt.Sprint(got) != fmt.Sprint(timeline) {
		t.Fatalf("replayed timeline = %+v, want %+v", got, timeline)
	}
	if st := p2.SLO().Status(); st[0].State != slo.StateFiring {
		t.Fatalf("restored state = %s, want firing", st[0].State)
	}
	// The restarted plane's own sweeps extend the recovered series: the
	// fresh invocations counter restarts at zero, and the reset step is
	// skipped rather than zeroing the window.
	p2.invocations.Add(5)
	p2.ScrapeOnce(context.Background(), time.Unix(110, 0))
	p2.ScrapeOnce(context.Background(), time.Unix(111, 0))
	if s := p2.Series().Get(obs.RateInvokesPerSec); s.Len() != 5 {
		t.Fatalf("series after restart sweeps has %d samples, want 5", s.Len())
	} else if got := s.Rate(0); got <= 0 {
		t.Fatalf("restart-spanning rate = %g, want positive", got)
	}
}

func TestServeTwiceRefused(t *testing.T) {
	p := newTestPlane(PlaneConfig{})
	servePlane(t, p)
	defer p.Close()
	if _, err := p.Serve("127.0.0.1:0", Config{Layer: cberr.LayerGateway}); err == nil {
		t.Fatal("second Serve accepted")
	}
}

// TestObsEventsServerSideFilters drives GET /v1/obs/events through
// the api client: ?err=1, ?trace=, and ?limit= filter on the door,
// compose, and reject a malformed limit with 400.
func TestObsEventsServerSideFilters(t *testing.T) {
	p := newTestPlane(PlaneConfig{})
	for i := 1; i <= 5; i++ {
		ev := obs.Event{Trace: fmt.Sprintf("inv-%d", i), Function: "fn"}
		if i%2 == 0 {
			ev.Error = "boom"
		}
		p.Recorder().Record(ev)
	}
	url := servePlane(t, p)
	defer p.Close()
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
		t.Fatalf("no-SLO status = %+v, %v; want empty", sts, err)
	}
	if trs, err := client.Alerts(ctx); err != nil || len(trs) != 0 {
		t.Fatalf("no-SLO alerts = %+v, %v; want empty", trs, err)
	}
}
