package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/faultplane"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/tee"
	"confbench/internal/wire"
)

// GatewayHostLabel is the host label the gateway's own registry merges
// under in its federated cluster view.
const GatewayHostLabel = "gateway"

// Gateway is ConfBench's REST entry point. Its ops plane — federation
// sweep over the host agents, SLOs, flight recorder, telemetry spill,
// request accounting, listener — is the embedded door.Plane; what is
// written here is dispatch and host administration.
type Gateway struct {
	*door.Plane

	db            *faas.DB
	transport     api.Transport
	policyFactory func() Policy
	retries       *obs.Counter
	faults        *faultplane.Plane

	breakerThreshold int
	breakerCooldown  time.Duration

	mu    sync.RWMutex
	pools map[tee.Kind]*Pool

	// drainFn, when set (SetDrainer), serves POST /v1/drain: the
	// cluster core plugs in live migration so draining a host moves its
	// warm guests instead of discarding them. Unset, the drain route falls
	// back to a routing-only drain (quiesce, wait out in-flight,
	// remove).
	drainFn func(context.Context, string) (*api.DrainReport, error)

	// Every invoke is recorded in the plane's flight recorder under a
	// deterministic ID; one that exhausts its retry budget also goes to
	// the postmortem writer.
	invokeSeq    atomic.Uint64
	postmortemMu sync.Mutex
	postmortem   io.Writer

	// invokeHist caches the per-TEE invoke latency histogram: the
	// registry lookup sorts labels and allocates on every call, so the
	// per-invoke hot path resolves each handle on first sight.
	invokeHist sync.Map // tee.Kind → *obs.Histogram
}

// invokeHistogram returns the cached per-TEE invoke latency
// histogram, resolving it from the registry on first sight.
func (g *Gateway) invokeHistogram(kind tee.Kind) *obs.Histogram {
	if v, ok := g.invokeHist.Load(kind); ok {
		if h, ok := v.(*obs.Histogram); ok {
			return h
		}
	}
	h := g.Obs().Histogram("confbench_invoke_seconds", "tee", string(kind))
	g.invokeHist.Store(kind, h)
	return h
}

// Config assembles a gateway.
type Config struct {
	// PlaneConfig is the ops plane: registry, fault plane, periodic
	// sweep, durable directory, objectives. The gateway also consults
	// its fault plane's history to attribute injections to invokes.
	door.PlaneConfig
	// Policy is the pool load-balancing policy (nil = round-robin per
	// pool).
	Policy func() Policy
	// BreakerThreshold is the consecutive-failure count that trips an
	// endpoint's circuit breaker open (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open endpoint is skipped before
	// a half-open probe is allowed (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Transport selects the carrier for the gateway's outbound hops —
	// guest-agent forwards and federation scrapes ("" or "httpjson" =
	// one JSON-over-HTTP exchange per call; "binary" = the persistent
	// multiplexed wire protocol). The inbound front door always
	// accepts both.
	Transport string
}

// New builds a gateway with empty pools.
func New(cfg Config) *Gateway {
	// In-process deployments share one registry between the gateway and
	// its hosts, so the federated snapshot repeats every family once per
	// host label; scoping the SLOs to the gateway's own label counts
	// each request exactly once.
	plane := door.NewPlane(cfg.PlaneConfig, GatewayHostLabel, "host",
		slo.Scope{Label: "host", Match: GatewayHostLabel})
	transport, err := wire.NewTransport(cfg.Transport, plane.Obs())
	if err != nil {
		// Entry points validate the name before it gets here; an
		// unknown transport degrades to the legacy carrier rather than
		// refusing to build.
		transport = wire.NewHTTPJSON()
	}
	return &Gateway{
		Plane:            plane,
		db:               faas.NewDB(langs.Names()),
		transport:        transport,
		policyFactory:    cfg.Policy,
		retries:          plane.Obs().Counter("confbench_invoke_retries_total"),
		faults:           cfg.Faults,
		pools:            make(map[tee.Kind]*Pool, 4),
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cfg.BreakerCooldown,
		postmortem:       os.Stderr,
	}
}

// AddHost registers every endpoint of a host agent, creating the TEE
// pool on first sight. This mirrors the gateway configuration file
// that "maps TEEs and their interface ports".
func (g *Gateway) AddHost(name string, eps []hostagent.Endpoint) {
	g.mu.Lock()
	for _, ep := range eps {
		pool, ok := g.pools[ep.TEE]
		if !ok {
			var policy Policy
			if g.policyFactory != nil {
				policy = g.policyFactory()
			}
			pool = NewPool(ep.TEE, policy, g.Obs(),
				WithBreaker(g.breakerThreshold, g.breakerCooldown))
			g.pools[ep.TEE] = pool
		}
		pool.Add(name, ep)
	}
	g.mu.Unlock()
	// Every host doubles as a federation scrape target: its registry is
	// reachable through the same relay the invokes travel. All of a
	// host's VMs share the host process's registry, so any one relay
	// reaches the same snapshot.
	if len(eps) > 0 {
		addr := eps[0].Addr
		g.AddTarget(name, faultplane.Target{TEE: string(eps[0].TEE), Host: name},
			func(ctx context.Context) (obs.Snapshot, error) {
				var snap obs.Snapshot
				err := g.transport.RoundTrip(ctx, addr, api.GuestV1Obs+"?format=json", nil, &snap)
				return snap, err
			})
	}
}

// SetDrainer installs the drain implementation POST /v1/drain
// delegates to. The cluster core registers its migrating drain here;
// without one the gateway serves a routing-only drain. Call before
// Start.
func (g *Gateway) SetDrainer(fn func(context.Context, string) (*api.DrainReport, error)) {
	g.mu.Lock()
	g.drainFn = fn
	g.mu.Unlock()
}

// QuiesceHost marks every endpoint of host draining across all pools
// so new acquisitions route around it, and returns how many endpoints
// were marked. In-flight invokes keep their endpoints until they
// complete.
func (g *Gateway) QuiesceHost(host string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, p := range g.pools {
		n += p.Quiesce(host)
	}
	return n
}

// UnquiesceHost returns host's endpoints to routing after an aborted
// drain.
func (g *Gateway) UnquiesceHost(host string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, p := range g.pools {
		n += p.Unquiesce(host)
	}
	return n
}

// HostInFlight sums the in-flight invokes still holding host's
// endpoints across all pools. A drain polls this to zero after
// quiescing before it may move or remove anything.
func (g *Gateway) HostInFlight(host string) int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var n int64
	for _, p := range g.pools {
		n += p.InFlightFor(host)
	}
	return n
}

// RemoveHost drops every endpoint of host from routing and the
// federation sweep, returning the number of endpoints removed.
func (g *Gateway) RemoveHost(host string) int {
	g.mu.Lock()
	n := 0
	for _, p := range g.pools {
		n += p.Remove(host)
	}
	g.mu.Unlock()
	g.RemoveTarget(host)
	return n
}

// drainRoutingOnly is the gateway's built-in drain: quiesce the
// host's endpoints, wait (ctx-bounded) for in-flight invokes to
// complete on them, then remove the host from the ring. No guests
// move — that is the cluster core's job via SetDrainer.
func (g *Gateway) drainRoutingOnly(ctx context.Context, host string) (*api.DrainReport, error) {
	quiesced := g.QuiesceHost(host)
	if quiesced == 0 {
		return nil, cberr.Newf(cberr.CodeNotFound, cberr.LayerGateway,
			"gateway: drain: unknown host %q", host)
	}
	for g.HostInFlight(host) > 0 {
		select {
		case <-ctx.Done():
			// Abort restores routing: a host that could not drain must
			// keep serving, not sit invisible forever.
			g.UnquiesceHost(host)
			return nil, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerGateway,
				fmt.Errorf("gateway: drain %s: in-flight wait: %w", host, ctx.Err()))
		case <-time.After(time.Millisecond):
		}
	}
	removed := g.RemoveHost(host)
	return &api.DrainReport{
		Host:        host,
		RoutingOnly: true,
		Quiesced:    quiesced,
		Removed:     removed,
	}, nil
}

// drain serves POST /v1/drain: quiesce, migrate (when a drainer is
// installed), remove.
func (g *Gateway) drain(ctx context.Context, _ string, req api.DrainRequest) (*api.DrainReport, error) {
	if req.Host == "" {
		return nil, cberr.New(cberr.CodeInvalid, cberr.LayerGateway,
			"gateway: drain: host required")
	}
	g.mu.RLock()
	fn := g.drainFn
	g.mu.RUnlock()
	if fn == nil {
		fn = g.drainRoutingOnly
	}
	return fn(ctx, req.Host)
}

// Start serves the REST API on addr ("127.0.0.1:0" for ephemeral) and
// returns the base URL.
func (g *Gateway) Start(addr string) (string, error) {
	return g.Serve(addr, door.Config{
		Layer:      cberr.LayerGateway,
		Instrument: true,
		Routes: []door.Handler{
			door.Post(api.PathV1Functions, g.upload),
			door.Get(api.PathV1Functions, func(context.Context) ([]string, error) { return g.db.Names(), nil }),
			// The single gateway runs no admission control; the tenant
			// only matters at the front tier.
			door.Post(api.PathV1Invoke, func(ctx context.Context, _ string, req api.InvokeRequest) (api.InvokeResponse, error) {
				return g.Invoke(ctx, req)
			}),
			door.Post(api.PathV1Attest, func(ctx context.Context, _ string, req api.AttestRequest) (api.AttestResponse, error) {
				return g.Attest(ctx, req)
			}),
			door.Get(api.PathV1Pools, g.poolInfos),
			door.Post(api.PathV1Drain, g.drain),
		},
	})
}

// Close shuts the ops plane down — periodic sweep, listener, spill —
// and then the outbound transport it scraped through.
func (g *Gateway) Close() error {
	return errors.Join(g.Plane.Close(), g.transport.Close())
}

// upload serves POST /v1/functions.
func (g *Gateway) upload(_ context.Context, _ string, req api.UploadRequest) (map[string]string, error) {
	if err := g.db.Register(req.Function); err != nil {
		code := cberr.CodeInvalid
		if errors.Is(err, faas.ErrFunctionExists) {
			code = cberr.CodeConflict
		}
		return nil, cberr.Wrap(code, cberr.LayerGateway, err)
	}
	return map[string]string{"registered": req.Function.Name}, nil
}

// pickPool resolves the pool for an invocation. A non-secure request
// without an explicit TEE runs on any platform's normal VM (stable
// order for determinism). Missing pools classify as not_found; a
// secure request without a TEE kind is invalid.
func (g *Gateway) pickPool(kind tee.Kind, secure bool) (*Pool, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if kind != "" {
		pool, ok := g.pools[kind]
		if !ok {
			return nil, cberr.Wrap(cberr.CodeNotFound, cberr.LayerPool,
				fmt.Errorf("%w: %q", ErrNoPool, kind))
		}
		return pool, nil
	}
	if secure {
		return nil, cberr.New(cberr.CodeInvalid, cberr.LayerGateway,
			"gateway: secure invocation requires a TEE kind")
	}
	kinds := make([]tee.Kind, 0, len(g.pools))
	for k := range g.pools {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		return g.pools[k], nil
	}
	return nil, cberr.Wrap(cberr.CodeNotFound, cberr.LayerPool, ErrNoPool)
}

// Invoke runs one invocation through the full gateway pipeline —
// lookup, pool pick, health-aware dispatch with one alternate-endpoint
// retry, flight-recorder event, exemplared latency histogram, optional
// trace grafting. The front door binds it for both carriers, and the
// front tier's shards drive the same method, so the sharded and
// single-gateway paths cannot drift apart.
func (g *Gateway) Invoke(ctx context.Context, req api.InvokeRequest) (api.InvokeResponse, error) {
	fn, err := g.db.Lookup(req.Function)
	if err != nil {
		return api.InvokeResponse{}, cberr.Wrap(cberr.CodeNotFound, cberr.LayerGateway, err)
	}
	var root *obs.Span
	if req.Trace {
		ctx, root = obs.NewRoot(ctx, "gateway", api.PathV1Invoke)
		root.SetAttr("function", req.Function)
		root.SetAttr("secure", strconv.FormatBool(req.Secure))
	}
	pool, err := g.pickPool(req.TEE, req.Secure)
	if err != nil {
		return api.InvokeResponse{}, err
	}
	// Every invoke gets a deterministic flight-recorder ID: the
	// exemplar on the latency histogram and the recorded event share
	// it, so an outlier bucket leads straight to its event.
	invokeID := "inv-" + strconv.FormatUint(g.invokeSeq.Add(1), 10)
	faultsBefore := g.faults.Injected()
	start := time.Now()
	var resp api.InvokeResponse
	entry, hop, attempts, err := dispatch(ctx, g, pool, req.Secure, api.GuestV1Invoke,
		&api.GuestInvokeRequest{Function: fn, Scale: req.Scale, Trace: req.Trace}, &resp)
	elapsed := time.Since(start)
	retriesUsed := attempts - 1
	if retriesUsed < 0 {
		retriesUsed = 0 // acquire failed before the first attempt
	}
	ev := obs.Event{
		Trace:     invokeID,
		Function:  req.Function,
		TEE:       string(pool.TEE),
		Secure:    req.Secure,
		Retries:   retriesUsed,
		LatencyNs: elapsed.Nanoseconds(),
	}
	if entry != nil {
		ev.Host = entry.Host
		ev.Warm = entry.Endpoint.Warm
	}
	// Attribute the faults that fired during this dispatch. Exact in
	// serial runs; under concurrent traffic the window may include a
	// neighbour's injections (a superset, never a miss).
	for _, inj := range g.faults.HistoryFrom(faultsBefore) {
		ev.FaultPoints = append(ev.FaultPoints, string(inj.Point)+":"+string(inj.Kind))
	}
	if err != nil {
		ev.Error = err.Error()
		ev.Code = string(cberr.CodeOf(err))
		g.Recorder().Record(ev)
		if attempts >= 2 {
			// The invoke burned its whole retry budget and still
			// failed: flush the postmortem so the failure is diagnosable
			// even if nobody polls /obs/events before the ring wraps.
			g.writePostmortem(ev)
		}
		return api.InvokeResponse{}, err
	}
	g.Recorder().Record(ev)
	g.invokeHistogram(pool.TEE).ObserveExemplar(elapsed, invokeID)
	// The guest's span tree rode back inside the response; graft it
	// under the relay hop (its clock is not ours) and replace it with
	// the full gateway-rooted tree.
	if root != nil {
		hop.AttachRemote(resp.Trace)
		root.End()
		resp.Trace = root.Data()
	}
	resp.Host = entry.Host
	g.CountInvoke(string(pool.TEE))
	return resp, nil
}

// dispatch runs one forwarded exchange with endpoint health
// accounting: it acquires a healthy endpoint, forwards, reports the
// outcome to that endpoint's breaker, and retries once on an
// alternate endpoint when the attempt failed retryably (per the cberr
// taxonomy). It returns the entry that served the last attempt (also
// on failure, for flight-recorder attribution), that attempt's
// relay-hop span for trace grafting, and the number of attempts made
// — the flight recorder flags attempts >= 2 with an error as an
// exhausted retry budget. Canceled callers and non-retryable failures
// are never retried, and a failed retry surfaces the retry's error
// (the fresher diagnosis). Neither the lease nor req and resp reach the
// heap on the binary carrier (wire.Call), so callers keep them on their
// stacks.
func dispatch[Req, Resp any](ctx context.Context, g *Gateway, pool *Pool, secure bool, path string, req *Req, resp *Resp) (*Entry, *obs.Span, int, error) {
	var lastErr error
	var lastEntry *Entry
	var avoid *Entry
	attempts := 0
	for attempt := 0; attempt < 2; attempt++ {
		entry, err := pool.acquire(ctx, secure, avoid)
		if err != nil {
			// No alternate endpoint for the retry: the first failure
			// is the better story.
			if lastErr != nil {
				return lastEntry, nil, attempts, lastErr
			}
			return nil, nil, attempts, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerPool, err)
		}
		attempts++
		lastEntry = entry
		if attempt > 0 {
			g.retries.Inc()
		}
		hopCtx, hop := obs.StartSpan(ctx, "gateway", "relay-hop", entry.Endpoint.Addr)
		if attempt > 0 {
			hop.SetAttr("retry", strconv.Itoa(attempt))
		}
		err = wire.Call(hopCtx, g.transport, entry.Endpoint.Addr, path, req, resp)
		hop.End()
		pool.release(entry)
		if err == nil {
			entry.breaker.OnSuccess()
			return entry, hop, attempts, nil
		}
		if cberr.Retryable(err) {
			// Only infrastructure failures count against the breaker;
			// a request the guest rejected as invalid says nothing
			// about endpoint health.
			entry.breaker.OnFailure(time.Now())
		}
		lastErr = err
		if !cberr.Retryable(err) || ctx.Err() != nil {
			return lastEntry, nil, attempts, err
		}
		avoid = entry
	}
	return lastEntry, nil, attempts, lastErr
}

// Attest runs one attestation round trip through the dispatch
// pipeline.
func (g *Gateway) Attest(ctx context.Context, req api.AttestRequest) (api.AttestResponse, error) {
	pool, err := g.pickPool(req.TEE, true)
	if err != nil {
		return api.AttestResponse{}, err
	}
	var resp api.AttestResponse
	if _, _, _, err := dispatch(ctx, g, pool, true, api.GuestV1Attest, &req, &resp); err != nil {
		return api.AttestResponse{}, err
	}
	g.CountAttest()
	return resp, nil
}

// poolInfos serves GET /v1/pools.
func (g *Gateway) poolInfos(context.Context) ([]api.PoolInfo, error) {
	g.mu.RLock()
	infos := make([]api.PoolInfo, 0, len(g.pools))
	for _, p := range g.pools {
		infos = append(infos, api.PoolInfo{
			TEE:       p.TEE,
			Endpoints: p.Len(),
			Policy:    p.PolicyName(),
			InFlight:  int(p.InFlight()),
			Healthy:   p.Healthy(),
			Members:   p.Members(),
		})
	}
	g.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].TEE < infos[j].TEE })
	return infos, nil
}

// SetPostmortemWriter redirects flight-recorder postmortems (written
// when an invoke exhausts its retry budget) away from stderr; tests
// point it at a buffer.
func (g *Gateway) SetPostmortemWriter(w io.Writer) {
	g.postmortemMu.Lock()
	g.postmortem = w
	g.postmortemMu.Unlock()
}

// writePostmortem flushes one exhausted invoke's flight-recorder
// event to the postmortem writer.
func (g *Gateway) writePostmortem(ev obs.Event) {
	g.postmortemMu.Lock()
	w := g.postmortem
	g.postmortemMu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, "confbench postmortem: %s\n", ev.String())
}
