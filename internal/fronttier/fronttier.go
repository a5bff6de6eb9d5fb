package fronttier

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/faultplane"
	"confbench/internal/gateway"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/wire"
)

const (
	// shardQueueDepth bounds how many requests may wait for a shard's
	// dispatch slots before new arrivals shed.
	shardQueueDepth = 64
	// shardSlots is the per-shard dispatch-slot count: how many
	// forwarded requests one shard carries at once.
	shardSlots = 32
	// asyncTimeout bounds one async invoke's execution after its
	// submission was acknowledged.
	asyncTimeout = 2 * time.Minute
	// FrontShardLabel is the shard label the tier's own registry
	// merges under in the federated cluster view.
	FrontShardLabel = "front"
)

// ErrNoShards marks a tier with an empty shard set.
var ErrNoShards = errors.New("fronttier: no shards configured")

// ShardConfig names one gateway shard and where it serves.
type ShardConfig struct {
	Name string
	URL  string
}

// Config assembles a front tier.
type Config struct {
	// PlaneConfig is the ops plane: registry, fault plane, periodic
	// sweep, durable directory, objectives.
	door.PlaneConfig
	// Shards are the gateway shards to route across (≥ 1).
	Shards []ShardConfig
	// Quotas maps tenants to admission limits (absent = unlimited).
	Quotas map[string]TenantLimits
	// BreakerThreshold trips a shard open after that many consecutive
	// failures (0 = gateway.DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the open shard's re-probe delay
	// (0 = gateway.DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Now injects the tier's clock for admission buckets, result TTLs,
	// and breaker timing (nil = wall clock).
	Now func() time.Time
	// Transport selects the tier→shard hop carrier ("" or "httpjson" =
	// JSON over HTTP; "binary" = the persistent multiplexed wire
	// protocol). The tier's own front door always accepts both.
	Transport string
}

// shard is one gateway shard as the tier sees it: a client, a
// breaker, and the bounded admission queue in front of its slots.
type shard struct {
	name    string
	url     string
	client  *api.Client
	breaker *gateway.Breaker

	slots      chan struct{}
	waiting    atomic.Int64
	queueDepth *obs.Gauge   // waiting, as confbench_fronttier_queue_depth
	load       atomic.Int64 // in-flight forwarded requests

	// invokes is confbench_fronttier_invokes_total for this shard,
	// registered on its first success so a shard that served nothing
	// reports no series.
	invokes atomic.Pointer[obs.Counter]

	// latencyNs is an EWMA of recent forward latency, feeding the
	// queue-full retry-after estimate.
	latencyNs atomic.Int64
}

// observeLatency folds one forward's latency into the EWMA (α = 1/4).
func (s *shard) observeLatency(d time.Duration) {
	prev := s.latencyNs.Load()
	if prev == 0 {
		s.latencyNs.Store(d.Nanoseconds())
		return
	}
	s.latencyNs.Store(prev + (d.Nanoseconds()-prev)/4)
}

// Tier is the sharded front door. It terminates the public API,
// admits per tenant, routes per the bounded-load ring, fails over
// along the successor walk when a shard's breaker is open, and runs
// the async submit/poll lifecycle. Its ops plane — federation sweep
// over the shards, SLOs, alert recorder, telemetry spill, request
// accounting, listener — is the embedded door.Plane.
type Tier struct {
	*door.Plane

	ring      *Ring
	admission *Admission
	store     *ResultStore
	clock     func() time.Time

	shards map[string]*shard
	// queueDepth is shardQueueDepth; tests narrow it.
	queueDepth int64

	asyncSeq     atomic.Uint64
	asyncWG      sync.WaitGroup
	asyncPending *obs.Gauge

	// transport is the shared shard-hop carrier when Config.Transport
	// selected binary (nil = each client's default HTTP).
	transport api.Transport
}

// New builds a tier over the configured shards. The shard set is
// fixed at construction (membership changes go through the ring in
// tests; production growth is a reboot concern for now).
func New(cfg Config) (*Tier, error) {
	if len(cfg.Shards) == 0 {
		return nil, ErrNoShards
	}
	clock := cfg.Now
	if clock == nil {
		clock = time.Now
	}
	// No SLO scope filter: each scraped shard registry is distinct in
	// the tier's federated view (no family repeats across shard labels
	// the way an in-process gateway repeats host labels), and the tier's
	// own registry — merged under FrontShardLabel — is where
	// cluster-level signals like migration downtime land.
	plane := door.NewPlane(cfg.PlaneConfig, FrontShardLabel, "shard", slo.Scope{})
	reg := plane.Obs()
	t := &Tier{
		Plane:        plane,
		ring:         NewRing(DefaultVirtualNodes),
		admission:    NewAdmission(cfg.Quotas, clock),
		store:        NewResultStore(DefaultAsyncCapacity, DefaultAsyncTTL, clock),
		clock:        clock,
		shards:       make(map[string]*shard, len(cfg.Shards)),
		queueDepth:   shardQueueDepth,
		asyncPending: reg.Gauge("confbench_fronttier_async_pending"),
	}
	if cfg.Transport == wire.TransportBinary {
		// One multiplexed-connection transport shared by every shard
		// client, so per-shard conns pool under one registry.
		t.transport = wire.NewBinary(reg)
	}
	for _, sc := range cfg.Shards {
		if sc.Name == "" || sc.URL == "" {
			return nil, fmt.Errorf("fronttier: shard needs a name and URL, got %+v", sc)
		}
		if _, dup := t.shards[sc.Name]; dup {
			return nil, fmt.Errorf("fronttier: duplicate shard %q", sc.Name)
		}
		// One attempt per shard: failover is the tier's job (the
		// successor walk), not the per-shard client's.
		opts := []api.Option{api.WithRetries(1)}
		if t.transport != nil {
			opts = append(opts, api.WithTransport(t.transport))
		}
		client, err := api.New(sc.URL, opts...)
		if err != nil {
			return nil, fmt.Errorf("fronttier: shard %s: %w", sc.Name, err)
		}
		gauge := reg.Gauge("confbench_fronttier_shard_breaker_state", "shard", sc.Name)
		gauge.Set(int64(gateway.BreakerClosed))
		t.shards[sc.Name] = &shard{
			name:       sc.Name,
			url:        sc.URL,
			client:     client,
			breaker:    gateway.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, gauge),
			slots:      make(chan struct{}, shardSlots),
			queueDepth: reg.Gauge("confbench_fronttier_queue_depth", "shard", sc.Name),
		}
		t.ring.Add(sc.Name)
		// Every shard doubles as a federation scrape target.
		t.AddTarget(sc.Name, faultplane.Target{Host: sc.Name}, client.Obs)
	}
	return t, nil
}

// Ring exposes the tier's hash ring (tests drive membership through
// it).
func (t *Tier) Ring() *Ring { return t.ring }

// ShardNames lists the configured shards, sorted.
func (t *Tier) ShardNames() []string {
	out := make([]string, 0, len(t.shards))
	for n := range t.shards {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ShardURL reports where a shard serves ("" when unknown).
func (t *Tier) ShardURL(name string) string {
	if sh, ok := t.shards[name]; ok {
		return sh.url
	}
	return ""
}

// shed records one load-shed under its reason label and returns the
// classified verdict for the wire.
func (t *Tier) shed(reason string, err error) error {
	t.Obs().Counter("confbench_fronttier_sheds_total", "reason", reason).Inc()
	return err
}

// shardInvokes returns sh's invoke counter, registering it on first
// use. Two first uses may both resolve it; the registry hands both the
// same counter.
func (t *Tier) shardInvokes(sh *shard) *obs.Counter {
	if c := sh.invokes.Load(); c != nil {
		return c
	}
	c := t.Obs().Counter("confbench_fronttier_invokes_total", "shard", sh.name)
	sh.invokes.Store(c)
	return c
}

// routeOrder resolves key's shard walk: ring successor order with
// bounded-load applied — the first in-bound shard leads, the walk
// continues in ring order. The ring is walked once, for both.
func (t *Tier) routeOrder(key string) []*shard {
	names := t.ring.Successors(key)
	if len(names) == 0 {
		return nil
	}
	first := pickBounded(names, func(name string) int64 {
		if sh, ok := t.shards[name]; ok {
			return sh.load.Load()
		}
		return 0
	}, DefaultLoadFactor)
	out := make([]*shard, 0, len(names))
	if sh, ok := t.shards[first]; ok {
		out = append(out, sh)
	}
	for _, n := range names {
		if n == first {
			continue
		}
		if sh, ok := t.shards[n]; ok {
			out = append(out, sh)
		}
	}
	return out
}

// enqueue claims one of sh's dispatch slots, waiting in its bounded
// admission queue. A full queue (or a canceled wait) returns the shed
// verdict with drain-time retry advice. The seat is reserved by
// compare-and-swap, so concurrent arrivals cannot both pass the check
// and admit past queueDepth.
func (t *Tier) enqueue(ctx context.Context, sh *shard) (func(), error) {
	for {
		w := sh.waiting.Load()
		if w >= t.queueDepth {
			return nil, t.queueFullError(sh)
		}
		if sh.waiting.CompareAndSwap(w, w+1) {
			break
		}
	}
	sh.queueDepth.Set(sh.waiting.Load())
	defer func() {
		sh.queueDepth.Set(sh.waiting.Add(-1))
	}()
	select {
	case sh.slots <- struct{}{}:
		sh.load.Add(1)
		return func() {
			sh.load.Add(-1)
			<-sh.slots
		}, nil
	case <-ctx.Done():
		return nil, cberr.From(ctx.Err(), cberr.LayerFront)
	}
}

// queueFullError is the shed verdict for a saturated shard queue,
// advising retry after the queue's estimated drain time.
func (t *Tier) queueFullError(sh *shard) error {
	lat := time.Duration(sh.latencyNs.Load())
	if lat <= 0 {
		lat = 10 * time.Millisecond
	}
	drain := lat * time.Duration(sh.waiting.Load()+1) / time.Duration(cap(sh.slots))
	if drain < 10*time.Millisecond {
		drain = 10 * time.Millisecond
	}
	err := cberr.Newf(cberr.CodeUnavailable, cberr.LayerFront,
		"fronttier: shard %s admission queue full (%d waiting)", sh.name, sh.waiting.Load())
	return cberr.WithRetryAfter(err, drain)
}

// forward walks key's shard order and runs call against the first
// available shard, failing over along the successor walk on retryable
// failures with breaker accounting — the shard-level mirror of the
// gateway's endpoint dispatch. When every shard's breaker is open the
// verdict is a shed naming the open shards, with the soonest breaker
// re-admission as retry advice.
func (t *Tier) forward(ctx context.Context, key string, call func(context.Context, *shard) error) error {
	order := t.routeOrder(key)
	if len(order) == 0 {
		return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerFront, ErrNoShards)
	}
	var lastErr error
	var open []string
	var soonest time.Duration
	var queueErr error
	attempted := 0
	for _, sh := range order {
		now := t.clock()
		if !sh.breaker.Available(now) {
			open = append(open, sh.name)
			if in := sh.breaker.RetryIn(now); in > 0 && (soonest == 0 || in < soonest) {
				soonest = in
			}
			continue
		}
		release, err := t.enqueue(ctx, sh)
		if err != nil {
			// A saturated queue walks on to the successor; the verdict
			// only sheds when no shard could take the request.
			queueErr = err
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		sh.breaker.BeginAttempt(now)
		if attempted > 0 {
			t.Obs().Counter("confbench_fronttier_failovers_total").Inc()
		}
		attempted++
		start := time.Now()
		err = call(ctx, sh)
		release()
		if err == nil {
			sh.breaker.OnSuccess()
			sh.observeLatency(time.Since(start))
			t.shardInvokes(sh).Inc()
			return nil
		}
		if cberr.Retryable(err) {
			sh.breaker.OnFailure(t.clock())
		}
		lastErr = err
		if !cberr.Retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	if lastErr != nil {
		return lastErr
	}
	if queueErr != nil {
		return t.shed("queue_full", queueErr)
	}
	err := cberr.Newf(cberr.CodeUnavailable, cberr.LayerFront,
		"fronttier: all shards unavailable — open breakers: %s", strings.Join(open, ", "))
	return t.shed("shards_open", cberr.WithRetryAfter(err, soonest))
}

// Invoke routes one synchronous invocation: admission, ring
// placement, breaker failover.
func (t *Tier) Invoke(ctx context.Context, tenant string, req api.InvokeRequest) (api.InvokeResponse, error) {
	release, err := t.admit(tenant)
	if err != nil {
		return api.InvokeResponse{}, err
	}
	defer release()
	var resp api.InvokeResponse
	err = t.forward(ctx, RouteKey(req.Function, tenant), func(ctx context.Context, sh *shard) error {
		var ferr error
		resp, ferr = sh.client.Invoke(ctx, req)
		return ferr
	})
	if err != nil {
		return api.InvokeResponse{}, err
	}
	t.CountInvoke("")
	return resp, nil
}

// admit runs tenant admission, mapping each shed onto its reason
// counter.
func (t *Tier) admit(tenant string) (func(), error) {
	release, err := t.admission.Admit(tenant)
	if err == nil {
		return release, nil
	}
	reason := "tenant_rate"
	if errors.Is(err, ErrTenantInFlight) {
		reason = "tenant_inflight"
	}
	return nil, t.shed(reason, err)
}

// SubmitAsync runs the async submission: admission, a pending entry
// in the result store, and a completion goroutine driving the same
// forward path as the sync invoke. The admission slot is held until
// completion, so in-flight quotas count async work.
func (t *Tier) SubmitAsync(tenant string, req api.InvokeRequest) (api.AsyncSubmitResponse, error) {
	release, err := t.admit(tenant)
	if err != nil {
		return api.AsyncSubmitResponse{}, err
	}
	id := "async-" + strconv.FormatUint(t.asyncSeq.Add(1), 10)
	if err := t.store.Put(id); err != nil {
		release()
		shedErr := cberr.WithRetryAfter(
			cberr.Wrap(cberr.CodeUnavailable, cberr.LayerFront, err), DefaultAsyncTTL)
		return api.AsyncSubmitResponse{}, t.shed("async_backlog", shedErr)
	}
	t.asyncPending.Inc()
	t.asyncWG.Add(1)
	go func() {
		defer t.asyncWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), asyncTimeout)
		defer cancel()
		var resp api.InvokeResponse
		err := t.forward(ctx, RouteKey(req.Function, tenant), func(ctx context.Context, sh *shard) error {
			var ferr error
			resp, ferr = sh.client.Invoke(ctx, req)
			return ferr
		})
		// Before the result is published: whoever has read it must find
		// the tenant's in-flight slot free and the pending gauge settled.
		release()
		t.asyncPending.Dec()
		if err != nil {
			t.CountError()
			t.store.Complete(id, nil, api.ErrorEnvelope(err))
		} else {
			t.CountInvoke("")
			t.store.Complete(id, &resp, nil)
		}
	}()
	return api.AsyncSubmitResponse{ID: id, Status: api.AsyncPending}, nil
}

// result terminates GET /v1/invoke/{id}. An optional ?wait=<dur>
// long-polls the result store: the response parks until the invoke
// completes or the wait (clamped to MaxResultWait) elapses, answering
// 204 when the invoke is still pending — poll again — so completion
// costs one round trip, not a sleep loop.
func (t *Tier) result(w http.ResponseWriter, r *http.Request, _ cberr.Layer) error {
	id := r.PathValue("id")
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return cberr.New(cberr.CodeInvalid, cberr.LayerFront,
				"wait must be a non-negative Go duration")
		}
		wait = min(d, MaxResultWait)
	}
	res, ok := t.store.Await(r.Context(), id, wait)
	if !ok {
		return cberr.Newf(cberr.CodeNotFound, cberr.LayerFront,
			"fronttier: no result for %q (unknown, expired, or evicted)", id)
	}
	if wait > 0 && res.Status == api.AsyncPending {
		w.WriteHeader(http.StatusNoContent)
		return nil
	}
	api.WriteJSON(w, http.StatusOK, res)
	return nil
}

// upload broadcasts a function to every shard. A shard reporting
// conflict during the broadcast means it already holds the function —
// that is completion, not failure, so retried broadcasts converge;
// only an all-shards conflict reports conflict to the caller.
func (t *Tier) upload(ctx context.Context, _ string, req api.UploadRequest) (map[string]string, error) {
	conflicts := 0
	for _, name := range t.ShardNames() {
		err := t.shards[name].client.Upload(ctx, req.Function)
		switch {
		case err == nil:
		case cberr.CodeOf(err) == cberr.CodeConflict:
			conflicts++
		default:
			return nil, err
		}
	}
	if conflicts == len(t.shards) {
		return nil, cberr.Newf(cberr.CodeConflict, cberr.LayerFront,
			"fronttier: function %q already registered on every shard", req.Function.Name)
	}
	return map[string]string{"registered": req.Function.Name}, nil
}

// functions serves the listing from the first shard that answers.
func (t *Tier) functions(ctx context.Context) ([]string, error) {
	var lastErr error
	for _, name := range t.ShardNames() {
		names, err := t.shards[name].client.Functions(ctx)
		if err == nil {
			return names, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Attest routes one attestation round trip — admission, ring
// placement keyed by platform × tenant, breaker failover.
func (t *Tier) Attest(ctx context.Context, tenant string, req api.AttestRequest) (api.AttestResponse, error) {
	release, err := t.admit(tenant)
	if err != nil {
		return api.AttestResponse{}, err
	}
	defer release()
	var resp api.AttestResponse
	err = t.forward(ctx, RouteKey("attest\x1f"+string(req.TEE), tenant),
		func(ctx context.Context, sh *shard) error {
			var ferr error
			resp, ferr = sh.client.Attest(ctx, req)
			return ferr
		})
	if err != nil {
		return api.AttestResponse{}, err
	}
	t.CountAttest()
	return resp, nil
}

// pools concatenates every shard's pool report in shard-name order.
func (t *Tier) pools(ctx context.Context) ([]api.PoolInfo, error) {
	out := make([]api.PoolInfo, 0, len(t.shards))
	for _, name := range t.ShardNames() {
		infos, err := t.shards[name].client.Pools(ctx)
		if err != nil {
			continue // a dead shard hides its pools, never the report
		}
		out = append(out, infos...)
	}
	return out, nil
}

// Start serves the front-tier API on addr ("127.0.0.1:0" for
// ephemeral) and returns the base URL.
func (t *Tier) Start(addr string) (string, error) {
	// The same surface the gateway serves, so either can stand behind
	// the same client — plus the async pair, minus drain (a tier
	// migrates nothing). Its door takes no request metrics: the SLO
	// engine reads the shards' counts, and the tier's own would count
	// every request a second time.
	return t.Serve(addr, door.Config{
		Layer: cberr.LayerFront,
		Routes: []door.Handler{
			door.Post(api.PathV1InvokeAsync, func(_ context.Context, tenant string, req api.InvokeRequest) (api.AsyncSubmitResponse, error) {
				return t.SubmitAsync(tenant, req)
			}),
			door.Post(api.PathV1Invoke, t.Invoke),
			door.Raw(http.MethodGet, api.PathV1Invoke+"/{id}", t.result),
			door.Post(api.PathV1Functions, t.upload),
			door.Get(api.PathV1Functions, t.functions),
			door.Post(api.PathV1Attest, t.Attest),
			door.Get(api.PathV1Pools, t.pools),
		},
	})
}

// Close shuts the ops plane down — periodic sweep, listener, spill —
// and waits for in-flight async completions, so no goroutine outlives
// the tier.
func (t *Tier) Close() error {
	err := t.Plane.Close()
	t.asyncWG.Wait()
	if t.transport != nil {
		err = errors.Join(err, t.transport.Close())
	}
	return err
}
