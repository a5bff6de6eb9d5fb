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

// Gateway is ConfBench's REST entry point.
type Gateway struct {
	db            *faas.DB
	transport     api.Transport
	policyFactory func() Policy
	obsreg        *obs.Registry
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

	// Federation scraper state (federate.go).
	scrapeMu       sync.Mutex
	scrapeTargets  []scrapeTarget
	scrapeTimeout  time.Duration
	scrapeInterval time.Duration
	scrapeStop     chan struct{}
	series         *obs.SeriesSet

	// Telemetry spill (Config.DurableDir): opened and replayed by
	// Start, flushed after every sweep and on Close.
	durableDir    string
	spillMu       sync.Mutex
	spill         *obs.Spill
	spillFailures *obs.Counter

	// SLO engine (Config.SLO): evaluated on every federation sweep,
	// served at /v1/obs/slo and /v1/obs/alerts. Nil without objectives.
	sloEng *slo.Engine

	// Invoke flight recorder (federate.go / Invoke).
	recorder     *obs.Recorder
	invokeSeq    atomic.Uint64
	postmortemMu sync.Mutex
	postmortem   io.Writer

	door    *door.Server
	started time.Time

	invocations  atomic.Uint64
	errors       atomic.Uint64
	attestations atomic.Uint64
	perPool      sync.Map // tee.Kind → *atomic.Uint64

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
	h := g.obsreg.Histogram("confbench_invoke_seconds", "tee", string(kind))
	g.invokeHist.Store(kind, h)
	return h
}

// poolCounter returns the invocation counter for kind.
func (g *Gateway) poolCounter(kind tee.Kind) *atomic.Uint64 {
	if v, ok := g.perPool.Load(kind); ok {
		counter, ok := v.(*atomic.Uint64)
		if ok {
			return counter
		}
	}
	counter := &atomic.Uint64{}
	actual, _ := g.perPool.LoadOrStore(kind, counter)
	stored, ok := actual.(*atomic.Uint64)
	if !ok {
		return counter
	}
	return stored
}

// Config assembles a gateway.
type Config struct {
	// Policy is the pool load-balancing policy (nil = round-robin per
	// pool).
	Policy func() Policy
	// Languages restricts the function DB (nil = all seven).
	Languages []string
	// Obs is the metrics registry the gateway and its pools report to
	// (nil = the process-wide default).
	Obs *obs.Registry
	// BreakerThreshold is the consecutive-failure count that trips an
	// endpoint's circuit breaker open (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open endpoint is skipped before
	// a half-open probe is allowed (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Faults is the fault plane the federation scraper consults at
	// obs.scrape (nil = fault-free).
	Faults *faultplane.Plane
	// ScrapeInterval enables periodic federation sweeps of the host
	// agents' registries (0 = on-demand only, via GET /v1/obs/cluster).
	ScrapeInterval time.Duration
	// ScrapeTimeout bounds one host's scrape (0 = DefaultScrapeTimeout).
	ScrapeTimeout time.Duration
	// RecorderCapacity sizes the invoke flight recorder's ring
	// (0 = obs.DefaultRecorderCapacity).
	RecorderCapacity int
	// Postmortem receives one-line flight-recorder postmortems when an
	// invoke exhausts its retry budget (nil = os.Stderr).
	Postmortem io.Writer
	// Transport selects the carrier for the gateway's outbound hops —
	// guest-agent forwards and federation scrapes ("" or "httpjson" =
	// one JSON-over-HTTP exchange per call; "binary" = the persistent
	// multiplexed wire protocol). The inbound front door always
	// accepts both.
	Transport string
	// DurableDir, when set, persists the telemetry plane there: every
	// federation sweep's series samples and new flight-recorder events
	// are spilled to an append-only checksummed log, and Start replays
	// the previous process's spill, so /v1/obs/cluster?window= rate
	// queries and /v1/obs/events span restarts ("" = in-memory only).
	DurableDir string
	// SLO declares the service-level objectives the gateway evaluates
	// on every federation sweep (nil = no SLO plane; /v1/obs/slo and
	// /v1/obs/alerts serve empty lists).
	SLO []slo.Objective
}

// New builds a gateway with empty pools.
func New(cfg Config) *Gateway {
	languages := cfg.Languages
	if languages == nil {
		languages = langs.Names()
	}
	scrapeTimeout := cfg.ScrapeTimeout
	if scrapeTimeout <= 0 {
		scrapeTimeout = DefaultScrapeTimeout
	}
	recorderCap := cfg.RecorderCapacity
	if recorderCap <= 0 {
		recorderCap = obs.DefaultRecorderCapacity
	}
	postmortem := cfg.Postmortem
	if postmortem == nil {
		postmortem = os.Stderr
	}
	reg := obs.OrDefault(cfg.Obs)
	transport, err := wire.NewTransport(cfg.Transport, reg)
	if err != nil {
		// Entry points validate the name before it gets here; an
		// unknown transport degrades to the legacy carrier rather than
		// refusing to build.
		transport = wire.NewHTTPJSON()
	}
	g := &Gateway{
		db:               faas.NewDB(languages),
		transport:        transport,
		pools:            make(map[tee.Kind]*Pool, 4),
		obsreg:           reg,
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cfg.BreakerCooldown,
		faults:           cfg.Faults,
		scrapeTimeout:    scrapeTimeout,
		scrapeInterval:   cfg.ScrapeInterval,
		series:           obs.NewSeriesSet(obs.DefaultSeriesCapacity),
		recorder:         obs.NewRecorder(recorderCap),
		postmortem:       postmortem,
		durableDir:       cfg.DurableDir,
	}
	if len(cfg.SLO) > 0 {
		// In-process deployments share one registry between the
		// gateway and its hosts, so the federated snapshot repeats
		// every family once per host label; scoping to the gateway's
		// own label counts each request exactly once.
		g.sloEng = slo.NewEngine(slo.Config{
			Objectives: cfg.SLO,
			Series:     g.series,
			Obs:        reg,
			Recorder:   g.recorder,
			Scope:      slo.Scope{Label: "host", Match: GatewayHostLabel},
		})
	}
	g.retries = g.obsreg.Counter("confbench_invoke_retries_total")
	if g.durableDir != "" {
		g.spillFailures = reg.Counter("confbench_obs_spill_failures_total")
	}
	g.policyFactory = cfg.Policy
	return g
}

// Obs exposes the gateway's metrics registry.
func (g *Gateway) Obs() *obs.Registry { return g.obsreg }

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
			pool = NewPool(ep.TEE, policy, g.obsreg,
				WithBreaker(g.breakerThreshold, g.breakerCooldown))
			g.pools[ep.TEE] = pool
		}
		pool.Add(name, ep)
	}
	g.mu.Unlock()
	// Every host doubles as a federation scrape target: its registry
	// is reachable through the same relay the invokes travel.
	for _, ep := range eps {
		g.addScrapeTarget(name, string(ep.TEE), ep.Addr)
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
	g.removeScrapeTarget(host)
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
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.door != nil {
		return "", errors.New("gateway: already started")
	}
	if g.durableDir != "" {
		sp, err := obs.OpenSpill(g.durableDir)
		if err != nil {
			return "", fmt.Errorf("gateway: %w", err)
		}
		// Replay the previous process's telemetry into the fresh rings
		// so windowed rates and event reads span the restart.
		if _, _, err := sp.Replay(g.series, g.recorder); err != nil {
			sp.Close()
			return "", fmt.Errorf("gateway: replay telemetry spill: %w", err)
		}
		g.spillMu.Lock()
		g.spill = sp
		g.spillMu.Unlock()
		// The replayed flight recorder carries the previous process's
		// alert transitions; rebuild the SLO timeline from them so
		// /v1/obs/alerts spans the restart.
		if g.sloEng != nil {
			g.sloEng.Restore(g.recorder.Events())
		}
	}
	g.started = time.Now()
	srv, err := door.Listen(addr, door.Config{
		Layer: cberr.LayerGateway,
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
			door.Get(api.PathV1Metrics, g.metrics),
			door.Get(api.PathV1Health, func(context.Context) (api.Health, error) {
				return api.Health{Status: "ok"}, nil
			}),
			door.Obs(api.PathV1Obs, g.obsreg),
			door.ObsCluster(g.ScrapeOnce, g.series),
			door.ObsEvents(g.recorder),
			door.ObsSLO(g.sloEng),
			door.ObsAlerts(g.sloEng),
		},
		Obs:        g.obsreg,
		Instrument: true,
		OnError:    func() { g.errors.Add(1) },
		Faults:     g.faults,
	})
	if err != nil {
		g.spillMu.Lock()
		if g.spill != nil {
			g.spill.Close()
			g.spill = nil
		}
		g.spillMu.Unlock()
		return "", fmt.Errorf("gateway: %w", err)
	}
	g.door = srv
	if g.scrapeInterval > 0 {
		g.scrapeStop = make(chan struct{})
		go g.scrapeLoop(g.scrapeInterval, g.scrapeStop)
	}
	return "http://" + srv.Addr(), nil
}

// BaseURL returns the served URL (empty before Start).
func (g *Gateway) BaseURL() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.door == nil {
		return ""
	}
	return "http://" + g.door.Addr()
}

// Close shuts the REST server and the federation scraper down.
func (g *Gateway) Close() error {
	g.mu.Lock()
	srv := g.door
	g.door = nil
	stop := g.scrapeStop
	g.scrapeStop = nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	// Flush any events recorded since the last sweep, then release the
	// spill so a successor process can reopen the directory.
	g.spillMu.Lock()
	sp := g.spill
	g.spill = nil
	g.spillMu.Unlock()
	var sperr error
	if sp != nil {
		sperr = errors.Join(sp.FlushEvents(g.recorder.Events()), sp.Close())
	}
	terr := errors.Join(g.transport.Close(), sperr)
	if srv == nil {
		return terr
	}
	return errors.Join(srv.Close(), terr)
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
	entry, hop, attempts, err := g.dispatch(ctx, pool, req.Secure, api.GuestV1Invoke,
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
		g.recorder.Record(ev)
		if attempts >= 2 {
			// The invoke burned its whole retry budget and still
			// failed: flush the postmortem so the failure is diagnosable
			// even if nobody polls /obs/events before the ring wraps.
			g.writePostmortem(ev)
		}
		return api.InvokeResponse{}, err
	}
	g.recorder.Record(ev)
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
	g.invocations.Add(1)
	g.poolCounter(pool.TEE).Add(1)
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
// (the fresher diagnosis).
func (g *Gateway) dispatch(ctx context.Context, pool *Pool, secure bool, path string, in, out any) (*Entry, *obs.Span, int, error) {
	var lastErr error
	var lastEntry *Entry
	var avoid *Entry
	attempts := 0
	for attempt := 0; attempt < 2; attempt++ {
		co, err := pool.AcquireAvoiding(ctx, secure, avoid)
		if err != nil {
			// No alternate endpoint for the retry: the first failure
			// is the better story.
			if lastErr != nil {
				return lastEntry, nil, attempts, lastErr
			}
			return nil, nil, attempts, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerPool, err)
		}
		entry := co.Entry
		attempts++
		lastEntry = entry
		if attempt > 0 {
			g.retries.Inc()
		}
		hopCtx, hop := obs.StartSpan(ctx, "gateway", "relay-hop "+entry.Endpoint.Addr)
		if attempt > 0 {
			hop.SetAttr("retry", strconv.Itoa(attempt))
		}
		err = g.transport.RoundTrip(hopCtx, entry.Endpoint.Addr, path, in, out)
		hop.End()
		co.Release()
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
	if _, _, _, err := g.dispatch(ctx, pool, true, api.GuestV1Attest, &req, &resp); err != nil {
		return api.AttestResponse{}, err
	}
	g.attestations.Add(1)
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

// metrics serves the gateway's request accounting.
func (g *Gateway) metrics(context.Context) (api.Metrics, error) {
	m := api.Metrics{
		UptimeSeconds: time.Since(g.started).Seconds(),
		Invocations:   g.invocations.Load(),
		Errors:        g.errors.Load(),
		Attestations:  g.attestations.Load(),
		PerPool:       make(map[string]uint64),
	}
	g.perPool.Range(func(k, v any) bool {
		kind, okK := k.(tee.Kind)
		counter, okV := v.(*atomic.Uint64)
		if okK && okV {
			m.PerPool[string(kind)] = counter.Load()
		}
		return true
	})
	return m, nil
}
