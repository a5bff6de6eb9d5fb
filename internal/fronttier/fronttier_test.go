package fronttier

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/obs"
)

// fakeShard is a minimal gateway stand-in: it serves the invoke,
// functions, and obs surfaces the tier forwards to, counts what it
// saw, and can be flipped into a failing state.
type fakeShard struct {
	name    string
	srv     *httptest.Server
	reg     *obs.Registry
	invokes atomic.Int64
	failing atomic.Bool
	block   chan struct{} // non-nil: invokes park here until released
	parked  atomic.Int64  // invokes parked on block right now
	unblock sync.Once
	wedged  chan struct{} // non-nil: obs scrapes park here until closed
}

// blockInvokes parks every invoke until release. The cleanup releasing
// them is registered after the server's, so it runs first: a test that
// fails with invokes parked ends at once instead of waiting in the
// server's Close for the test timeout.
func (f *fakeShard) blockInvokes(t *testing.T) {
	f.block = make(chan struct{})
	t.Cleanup(f.release)
}

// release lets parked invokes through; safe to call more than once.
func (f *fakeShard) release() { f.unblock.Do(func() { close(f.block) }) }

func newFakeShard(t *testing.T, name string) *fakeShard {
	t.Helper()
	f := &fakeShard{name: name, reg: obs.New()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathV1Invoke, func(w http.ResponseWriter, r *http.Request) {
		if f.failing.Load() {
			api.WriteError(w, http.StatusServiceUnavailable,
				cberr.New(cberr.CodeUnavailable, cberr.LayerGateway, "shard down"))
			return
		}
		if f.block != nil {
			f.parked.Add(1)
			select {
			case <-f.block:
				f.parked.Add(-1)
			case <-r.Context().Done():
				f.parked.Add(-1)
				return
			}
		}
		var req api.InvokeRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		f.invokes.Add(1)
		f.reg.Counter("confbench_invocations_total").Inc()
		api.WriteJSON(w, http.StatusOK, api.InvokeResponse{
			Output: "ran " + req.Function, WallNs: 1000, Host: f.name,
		})
	})
	mux.HandleFunc(api.PathV1Functions, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			api.WriteJSON(w, http.StatusOK, map[string]string{"registered": "x"})
			return
		}
		api.WriteJSON(w, http.StatusOK, []string{"fn"})
	})
	mux.HandleFunc("GET "+api.PathV1Obs, func(w http.ResponseWriter, r *http.Request) {
		if f.wedged != nil {
			<-f.wedged
		}
		api.WriteJSON(w, http.StatusOK, f.reg.Snapshot())
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// waitFor spins on cond until it holds, failing the test when ctx
// ends first.
func waitFor(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if err := ctx.Err(); err != nil {
			t.Fatalf("waiting for %s: %v", what, err)
		}
		runtime.Gosched()
	}
}

// bootTier builds a tier over fake shards and starts it.
func bootTier(t *testing.T, cfg Config, shards ...*fakeShard) (*Tier, *api.Client) {
	return bootTierWith(t, cfg, nil, shards...)
}

// bootTierWith is bootTier with tune applied to the built tier before
// it starts serving.
func bootTierWith(t *testing.T, cfg Config, tune func(*Tier), shards ...*fakeShard) (*Tier, *api.Client) {
	t.Helper()
	for _, f := range shards {
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: f.name, URL: f.srv.URL})
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(tier)
	}
	url, err := tier.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tier.Close() })
	client, err := api.New(url)
	if err != nil {
		t.Fatal(err)
	}
	return tier, client
}

// TestTierRoutesStably: one function × tenant key lands on one shard
// every time — consistent hashing, not round-robin.
func TestTierRoutesStably(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	b := newFakeShard(t, "shard-b")
	_, client := bootTier(t, Config{}, a, b)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := client.Invoke(ctx, api.InvokeRequest{Function: "stable"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.invokes.Load() + b.invokes.Load(); got != 10 {
		t.Fatalf("shards saw %d invokes, want 10", got)
	}
	if a.invokes.Load() != 0 && b.invokes.Load() != 0 {
		t.Fatalf("one key split across shards: a=%d b=%d", a.invokes.Load(), b.invokes.Load())
	}
}

// TestTierFailsOverToSuccessor: a failing shard trips its breaker and
// the walk carries every key to the survivor — zero client-visible
// failures.
func TestTierFailsOverToSuccessor(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	b := newFakeShard(t, "shard-b")
	tier, client := bootTier(t, Config{BreakerThreshold: 2}, a, b)
	a.failing.Store(true)
	ctx := context.Background()
	// Find a function keyed to the failing shard so the walk matters.
	fn := ""
	for _, cand := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"} {
		if tier.Ring().Owner(RouteKey(cand, api.TenantDefault)) == "shard-a" {
			fn = cand
			break
		}
	}
	if fn == "" {
		t.Fatal("no candidate function keyed to shard-a")
	}
	for i := 0; i < 6; i++ {
		resp, err := client.Invoke(ctx, api.InvokeRequest{Function: fn})
		if err != nil {
			t.Fatalf("invoke %d through failover: %v", i, err)
		}
		if resp.Host != "shard-b" {
			t.Fatalf("invoke %d served by %s, want the survivor", i, resp.Host)
		}
	}
	// The breaker tripped after the threshold, so later invokes skip
	// the dead shard without burning an attempt on it.
	snap := tier.Obs().Snapshot()
	if snap.Gauges[`confbench_fronttier_shard_breaker_state{shard="shard-a"}`] != 1 {
		t.Fatalf("shard-a breaker not open: %v", snap.Gauges)
	}
	if snap.Counters[`confbench_fronttier_failovers_total`] == 0 {
		t.Fatal("failovers counter never moved")
	}
}

// TestTierAllShardsOpenSheds: with every breaker open the tier sheds
// with a message naming the shards, 503 on the wire, and Retry-After
// advice bounded by the breaker cooldown.
func TestTierAllShardsOpenSheds(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	b := newFakeShard(t, "shard-b")
	a.failing.Store(true)
	b.failing.Store(true)
	tier, _ := bootTier(t, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour}, a, b)
	// No client retries: with a 1-hour cooldown the shed's Retry-After
	// advice would otherwise be honored (capped at 5s) per attempt.
	client, err := api.New(tier.BaseURL(), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// First call trips both breakers (walk tries each once).
	if _, err := client.Invoke(ctx, api.InvokeRequest{Function: "doomed"}); err == nil {
		t.Fatal("invoke against two dead shards succeeded")
	}
	_, err = client.Invoke(ctx, api.InvokeRequest{Function: "doomed"})
	if err == nil {
		t.Fatal("invoke with all breakers open succeeded")
	}
	if cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Fatalf("code = %s, want unavailable", cberr.CodeOf(err))
	}
	for _, name := range []string{"shard-a", "shard-b"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("shed %q does not name open shard %s", err, name)
		}
	}
	if ra := cberr.RetryAfterOf(err); ra <= 0 || ra > time.Hour {
		t.Errorf("RetryAfter = %v, want within the breaker cooldown", ra)
	}
	snap := tier.Obs().Snapshot()
	if snap.Counters[`confbench_fronttier_sheds_total{reason="shards_open"}`] == 0 {
		t.Fatalf("shards_open shed not counted: %v", snap.Counters)
	}
}

// TestTierTenantQuotaShedsWith503RetryAfter: an over-quota tenant
// gets HTTP 503 with a Retry-After header, and api.Client surfaces
// the advice so its retry loop honors it.
func TestTierTenantQuotaShedsWith503RetryAfter(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	ck := newClock()
	tier, _ := bootTier(t, Config{
		Quotas: map[string]TenantLimits{"acme": {RatePerSec: 1, Burst: 1}},
		Now:    ck.now,
	}, a)

	// Raw HTTP to inspect the wire: second request in the same instant
	// must shed with the header.
	body := `{"function":"fn"}`
	do := func() *http.Response {
		req, _ := http.NewRequest(http.MethodPost, tier.BaseURL()+api.PathV1Invoke, strings.NewReader(body))
		req.Header.Set(api.HeaderTenant, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := do(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first invoke status %d", resp.StatusCode)
	}
	resp := do()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-quota status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed missing Retry-After header")
	}
	var env api.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if env.RetryAfterMS <= 0 || !env.Retryable {
		t.Fatalf("envelope = %+v, want retryable with retry_after_ms", env)
	}

	// Client-level: a tenant-stamped client surfaces the advice on the
	// classified error (its retry loop sleeps exactly this, capped).
	client, err := api.New(tier.BaseURL(), api.WithTenant("acme"), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Invoke(context.Background(), api.InvokeRequest{Function: "fn"})
	if err == nil {
		t.Fatal("over-quota invoke succeeded")
	}
	if ra := cberr.RetryAfterOf(err); ra <= 0 || ra > time.Second {
		t.Fatalf("client-side RetryAfter = %v, want (0, 1s]", ra)
	}
	snap := tier.Obs().Snapshot()
	if snap.Counters[`confbench_fronttier_sheds_total{reason="tenant_rate"}`] == 0 {
		t.Fatalf("tenant_rate shed not counted: %v", snap.Counters)
	}
	// Unstamped requests fall under the default tenant: unlimited here.
	anon, _ := api.New(tier.BaseURL())
	if _, err := anon.Invoke(context.Background(), api.InvokeRequest{Function: "fn"}); err != nil {
		t.Fatalf("default tenant shed: %v", err)
	}
}

// TestTierInFlightQuotaCountsAsync: async submissions hold their
// admission slot until completion, so MaxInFlight gates them.
func TestTierInFlightQuotaCountsAsync(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	a.blockInvokes(t)
	tier, client := bootTier(t, Config{
		Quotas: map[string]TenantLimits{"acme": {MaxInFlight: 1}},
	}, a)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tenant, err := api.New(tier.BaseURL(), api.WithTenant("acme"), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tenant.InvokeAsync(ctx, api.InvokeRequest{Function: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Status != api.AsyncPending {
		t.Fatalf("submit status = %q, want pending", sub.Status)
	}
	// The submission took the tenant's in-flight slot before it was
	// answered, so no handshake is needed: whether the async invoke is
	// parked in the shard yet or still on its way, a second request
	// from the same tenant must shed on the in-flight quota.
	if _, err := tenant.Invoke(ctx, api.InvokeRequest{Function: "slow"}); err == nil {
		t.Fatal("second in-flight request admitted past MaxInFlight=1")
	}
	a.release()
	if _, err := client.AwaitResult(ctx, sub.ID, time.Millisecond); err != nil {
		t.Fatalf("await blocked async result: %v", err)
	}
	// Slot released on completion: the tenant is admitted again.
	if _, err := tenant.Invoke(ctx, api.InvokeRequest{Function: "slow"}); err != nil {
		t.Fatalf("invoke after async completion: %v", err)
	}
}

// TestTierAsyncLifecycle: submit → 202 with an ID → poll → done with
// the shard's response; a failed invoke polls back as an error
// envelope carrying the taxonomy.
func TestTierAsyncLifecycle(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	tier, client := bootTier(t, Config{BreakerThreshold: 100}, a)
	ctx := context.Background()

	sub, err := client.InvokeAsync(ctx, api.InvokeRequest{Function: "fn"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "async-") {
		t.Fatalf("submit ID = %q, want async- prefix", sub.ID)
	}
	resp, err := client.AwaitResult(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "ran fn" || resp.Host != "shard-a" {
		t.Fatalf("async result = %+v", resp)
	}

	// Failure path: the poll surfaces the classified error.
	a.failing.Store(true)
	sub, err = client.InvokeAsync(ctx, api.InvokeRequest{Function: "fn"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.AwaitResult(ctx, sub.ID, time.Millisecond)
	if err == nil {
		t.Fatal("failed async invoke polled back success")
	}
	if cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Fatalf("polled error code = %s, want unavailable", cberr.CodeOf(err))
	}

	// Unknown IDs are a clean 404.
	if _, err := client.ResultWait(ctx, "async-99999", 0); cberr.CodeOf(err) != cberr.CodeNotFound {
		t.Fatalf("unknown ID err = %v, want not_found", err)
	}
	if pending := tier.Obs().Snapshot().Gauges["confbench_fronttier_async_pending"]; pending != 0 {
		t.Fatalf("async pending gauge = %d after completion, want 0", pending)
	}
}

// TestTierWrongMethodEnveloped: a wrong method on the tier gets the
// same JSON error envelope the gateway serves, counted as an error —
// not the mux's plain-text 405.
func TestTierWrongMethodEnveloped(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	tier, client := bootTier(t, Config{}, a)
	resp, err := http.Get(tier.BaseURL() + api.PathV1Invoke)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("405 body is not a JSON envelope: %v", err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed || e.Code != cberr.CodeInvalid || e.Layer != cberr.LayerFront {
		t.Errorf("GET invoke = %d %+v, want 405 invalid_request/front", resp.StatusCode, e)
	}
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 1 {
		t.Errorf("errors = %d after one wrong-method request, want 1", m.Errors)
	}
}

// TestTierObsClusterFederatesShards: the cluster snapshot merges every
// shard's registry under shard labels plus the tier's own under
// shard="front", where the shed counters live.
func TestTierObsClusterFederatesShards(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	b := newFakeShard(t, "shard-b")
	tier, client := bootTier(t, Config{
		Quotas: map[string]TenantLimits{"acme": {RatePerSec: 0.001, Burst: 1}},
	}, a, b)
	ctx := context.Background()
	for _, fn := range []string{"f1", "f2", "f3", "f4"} {
		if _, err := client.Invoke(ctx, api.InvokeRequest{Function: fn}); err != nil {
			t.Fatal(err)
		}
	}
	// Burn the quota so a shed lands in the tier's own registry.
	acme, _ := api.New(tier.BaseURL(), api.WithTenant("acme"), api.WithRetries(1))
	_, _ = acme.Invoke(ctx, api.InvokeRequest{Function: "f1"})
	_, _ = acme.Invoke(ctx, api.InvokeRequest{Function: "f1"})

	cs, err := client.ObsCluster(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.ScrapeErrors) != 0 {
		t.Fatalf("scrape errors against live shards: %v", cs.ScrapeErrors)
	}
	wantHosts := map[string]bool{"front": true, "shard-a": true, "shard-b": true}
	for _, h := range cs.Hosts {
		delete(wantHosts, h)
	}
	if len(wantHosts) != 0 {
		t.Fatalf("cluster hosts %v missing %v", cs.Hosts, wantHosts)
	}
	shardsSeen := map[string]bool{}
	shedUnderFront := false
	for id := range cs.Merged.Counters {
		family, labels := obs.ParseMetricID(id)
		if family == "confbench_invocations_total" {
			shardsSeen[labels["shard"]] = true
		}
		if family == "confbench_fronttier_sheds_total" && labels["shard"] == FrontShardLabel {
			shedUnderFront = true
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("shard invocation counters federated for %v, want both shards", shardsSeen)
	}
	if !shedUnderFront {
		t.Fatal("shed counter absent from the federated view under shard=front")
	}
}

// TestTierSweepBoundsAWedgedShard: a shard that accepts the scrape and
// never answers costs the sweep one per-target timeout — the same
// bound the gateway applies per host — and is reported and counted
// like a dead one; the other shard is still scraped.
func TestTierSweepBoundsAWedgedShard(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	a.wedged = make(chan struct{})
	defer close(a.wedged) // before the server's Close waits on the handler
	b := newFakeShard(t, "shard-b")
	tier, _ := bootTier(t, Config{}, a, b)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	cs := tier.ScrapeOnce(ctx, time.Unix(100, 0))
	if elapsed := time.Since(start); elapsed > door.DefaultScrapeTimeout+3*time.Second {
		t.Fatalf("sweep took %v, want about one %v scrape timeout", elapsed, door.DefaultScrapeTimeout)
	}
	if msg := cs.ScrapeErrors["shard-a"]; !strings.HasPrefix(msg, "scrape shard-a: ") || len(cs.ScrapeErrors) != 1 {
		t.Fatalf("scrape errors = %v, want only the wedged shard-a", cs.ScrapeErrors)
	}
	if want := "[front shard-b]"; fmt.Sprint(cs.Hosts) != want {
		t.Fatalf("hosts = %v, want %s", cs.Hosts, want)
	}
	id := obs.MetricID("confbench_obs_scrape_failures_total", "host", "shard-a")
	if got := tier.Obs().Snapshot().Counters[id]; got != 1 {
		t.Fatalf("%s = %d, want 1", id, got)
	}
}

// oneSlotOneSeat narrows every shard to one dispatch slot and the
// admission queue to one seat.
func oneSlotOneSeat(tier *Tier) {
	tier.queueDepth = 1
	for _, sh := range tier.shards {
		sh.slots = make(chan struct{}, 1)
	}
}

// TestTierQueueFullSheds: with one dispatch slot and a one-seat
// queue, an invoke parked in the shard and one waiting for its slot
// force the next arrival to shed queue_full with drain-time retry
// advice.
func TestTierQueueFullSheds(t *testing.T) {
	a := newFakeShard(t, "shard-a")
	a.blockInvokes(t)
	tier, _ := bootTierWith(t, Config{}, oneSlotOneSeat, a)
	client, err := api.New(tier.BaseURL(), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Fill the slot (parked in the shard), then the one queue seat, one
	// invoke at a time. Launched together, the second could arrive while
	// the first still held the seat on its way to the free slot, and
	// shed instead of queueing.
	errs := make(chan error, 2)
	invoke := func() {
		_, err := client.Invoke(ctx, api.InvokeRequest{Function: "slow"})
		errs <- err
	}
	sh := tier.shards["shard-a"]
	go invoke()
	waitFor(t, ctx, "the first invoke parked in the shard", func() bool {
		return a.parked.Load() == 1 && sh.waiting.Load() == 0
	})
	go invoke()
	waitFor(t, ctx, "the second invoke queued", func() bool {
		return sh.load.Load() == 1 && sh.waiting.Load() == 1
	})
	_, err = client.Invoke(ctx, api.InvokeRequest{Function: "slow"})
	if err == nil {
		t.Fatal("third request admitted past a full queue")
	}
	if cberr.CodeOf(err) != cberr.CodeUnavailable || cberr.RetryAfterOf(err) <= 0 {
		t.Fatalf("queue shed = %v, want retryable unavailable with advice", err)
	}
	a.release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked invoke failed: %v", err)
		}
	}
	if tier.Obs().Snapshot().Counters[`confbench_fronttier_sheds_total{reason="queue_full"}`] == 0 {
		t.Fatal("queue_full shed not counted")
	}
}

// TestTierConcurrentArrivalsTakeOneSeat: 32 arrivals released at once
// on a shard whose only slot is parked and whose queue has one seat —
// exactly one waits and 31 shed queue_full. Two arrivals that both saw
// the seat free would both wait. An admission that checks and then
// reserves in two steps lets that happen about once in 200 bursts on
// a two-core machine, so the burst is repeated 2 000 times: such a
// mutation fails here in well under a second.
func TestTierConcurrentArrivalsTakeOneSeat(t *testing.T) {
	const arrivals, rounds = 32, 2000
	a := newFakeShard(t, "shard-a")
	a.blockInvokes(t)
	tier, _ := bootTierWith(t, Config{}, oneSlotOneSeat, a)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := tier.Invoke(ctx, "", api.InvokeRequest{Function: "slow"})
		parked <- err
	}()
	sh := tier.shards["shard-a"]
	waitFor(t, ctx, "the slot's invoke parked", func() bool {
		return a.parked.Load() == 1 && sh.waiting.Load() == 0
	})
	for round := 0; round < rounds; round++ {
		rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
		// The arrivals spin rather than block on a channel so that
		// they leave the start line together, not one wake-up apart.
		var start atomic.Bool
		errs := make(chan error, arrivals)
		for i := 0; i < arrivals; i++ {
			go func() {
				for !start.Load() {
					runtime.Gosched()
				}
				_, err := tier.Invoke(rctx, "", api.InvokeRequest{Function: "slow"})
				errs <- err
			}()
		}
		start.Store(true)
		// Every arrival has either returned or taken a seat.
		waitFor(t, rctx, "the burst to settle", func() bool {
			return int64(len(errs))+sh.waiting.Load() == arrivals
		})
		if w := sh.waiting.Load(); w != 1 {
			t.Fatalf("round %d: %d arrivals waiting on a one-seat queue, want 1", round, w)
		}
		for i := 0; i < arrivals-1; i++ {
			if err := <-errs; cberr.CodeOf(err) != cberr.CodeUnavailable {
				t.Fatalf("round %d: arrival = %v, want a queue_full shed", round, err)
			}
		}
		rcancel()
		if err := <-errs; err == nil {
			t.Fatalf("round %d: the queued arrival ran with the slot still parked", round)
		}
	}
	if got := tier.Obs().Snapshot().Counters[`confbench_fronttier_sheds_total{reason="queue_full"}`]; got != rounds*(arrivals-1) {
		t.Fatalf("queue_full sheds = %d, want %d", got, rounds*(arrivals-1))
	}
	a.release()
	if err := <-parked; err != nil {
		t.Fatalf("parked invoke failed: %v", err)
	}
}

// TestTierConfigValidation: empty and duplicate shard sets are
// construction errors.
func TestTierConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty shard set accepted")
	}
	_, err := New(Config{Shards: []ShardConfig{
		{Name: "s", URL: "http://x"}, {Name: "s", URL: "http://y"},
	}})
	if err == nil {
		t.Error("duplicate shard names accepted")
	}
}
