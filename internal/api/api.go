// Package api defines ConfBench's wire protocol: the JSON request and
// response types exchanged between clients, the gateway, host agents,
// and in-VM guest agents, plus an HTTP client for the gateway's REST
// interface (§III-A: "Users can submit workloads to execute via a
// REST-based interface together with the corresponding runtime
// parameters").
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/slo"
	"confbench/internal/tee"
)

// UploadRequest registers a function with the gateway.
type UploadRequest struct {
	Function faas.Function `json:"function"`
}

// InvokeRequest asks the gateway to execute a registered function.
type InvokeRequest struct {
	// Function is the registered function name.
	Function string `json:"function"`
	// Scale overrides the workload's default argument (0 = default).
	Scale int `json:"scale,omitempty"`
	// Secure selects a confidential VM.
	Secure bool `json:"secure"`
	// TEE selects the platform (tdx, sev-snp, cca). Required when
	// Secure; optional otherwise (any platform's normal VM will do).
	TEE tee.Kind `json:"tee,omitempty"`
	// Trace asks every layer to record spans; the response then
	// carries the full span tree.
	Trace bool `json:"trace,omitempty"`
}

// GuestInvokeRequest is the request a guest agent executes. The full
// function definition travels with it, so VMs stay stateless.
type GuestInvokeRequest struct {
	Function faas.Function `json:"function"`
	Scale    int           `json:"scale,omitempty"`
	// Trace asks the guest to record spans for this execution and
	// return them in the response.
	Trace bool `json:"trace,omitempty"`
}

// InvokeResponse reports one execution, with the perf metrics
// ConfBench piggybacks on results (§III-B).
type InvokeResponse struct {
	Output string `json:"output"`
	// WallNs is the priced execution time in nanoseconds.
	WallNs int64 `json:"wall_ns"`
	// BootstrapNs is the runtime startup time (excluded from WallNs).
	BootstrapNs int64         `json:"bootstrap_ns"`
	Perf        perfmon.Stats `json:"perf"`
	Secure      bool          `json:"secure"`
	Platform    tee.Kind      `json:"platform"`
	// Host and VM identify where the function ran.
	Host string `json:"host,omitempty"`
	VM   string `json:"vm,omitempty"`
	// Trace is the span tree for this invocation, present only when
	// the request set Trace. The gateway's root span covers the whole
	// request; the host-agent subtree is grafted under the relay hop.
	Trace *obs.SpanData `json:"trace,omitempty"`
}

// Wall returns the priced wall-clock duration.
func (r InvokeResponse) Wall() time.Duration { return time.Duration(r.WallNs) }

// HeaderTenant carries the caller's tenant identity to the front
// tier, which runs per-tenant admission control (rate limits and
// in-flight quotas) on it. Absent means TenantDefault.
const HeaderTenant = "X-Confbench-Tenant"

// TenantDefault is the tenant requests without a tenant header are
// accounted under.
const TenantDefault = "default"

// Async invoke lifecycle states, as reported by AsyncResult.Status.
const (
	// AsyncPending means the invoke is still executing.
	AsyncPending = "pending"
	// AsyncDone means the invoke finished and Response is populated.
	AsyncDone = "done"
	// AsyncError means the invoke failed and Error is populated.
	AsyncError = "error"
)

// AsyncSubmitResponse acknowledges an async invoke submission: the
// caller polls GET /v1/invoke/{id} for the result.
type AsyncSubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// AsyncResult is one async invoke's lifecycle record, served by
// GET /v1/invoke/{id}. Completed records are retained for the result
// store's TTL and then expire (polling an expired ID is a not_found).
type AsyncResult struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Response is the invoke's result, present once Status is done.
	Response *InvokeResponse `json:"response,omitempty"`
	// Error is the invoke's failure, present once Status is error.
	Error *ErrorResponse `json:"error,omitempty"`
}

// AttestRequest asks for an attestation round trip.
type AttestRequest struct {
	TEE   tee.Kind `json:"tee"`
	Nonce []byte   `json:"nonce"`
}

// AttestResponse reports evidence and phase timings.
type AttestResponse struct {
	Evidence []byte `json:"evidence"`
	// AttestNs is the wall time the guest took to produce its raw
	// report. It is not Fig. 5's attest phase, which is priced from the
	// metered work (attest.Timing), not timed.
	AttestNs int64 `json:"attest_ns"`
}

// Health is the GET health reply of every door. The gateway and the
// front tier fill only Status; a guest adds its VM.
type Health struct {
	Status string `json:"status"`
	VM     string `json:"vm,omitempty"`
}

// Metrics is the gateway's request accounting for GET /v1/metrics.
type Metrics struct {
	// UptimeSeconds since the gateway started serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Invocations counts successful function executions.
	Invocations uint64 `json:"invocations"`
	// Errors counts failed requests (any endpoint).
	Errors uint64 `json:"errors"`
	// Attestations counts successful attestation requests.
	Attestations uint64 `json:"attestations"`
	// PerPool breaks invocations down by TEE pool.
	PerPool map[string]uint64 `json:"per_pool"`
}

// PoolInfo describes one TEE pool for GET /v1/pools. When some hosts
// are down the gateway still answers with the full member list and
// per-endpoint breaker states — partial status, not a 500.
type PoolInfo struct {
	TEE       tee.Kind `json:"tee"`
	Endpoints int      `json:"endpoints"`
	Policy    string   `json:"policy"`
	InFlight  int      `json:"in_flight"`
	// Healthy counts endpoints whose circuit breaker is not open.
	Healthy int `json:"healthy"`
	// Members is the per-endpoint health breakdown.
	Members []EndpointHealth `json:"members,omitzero"`
}

// EndpointHealth is one pool member's health for GET /v1/pools.
type EndpointHealth struct {
	Host   string `json:"host"`
	VM     string `json:"vm"`
	Secure bool   `json:"secure"`
	// Breaker is the circuit-breaker position: closed, open, or
	// half-open.
	Breaker  string `json:"breaker"`
	InFlight int64  `json:"in_flight"`
	// Draining marks an endpoint quiesced for live migration: no new
	// work routes to it while its in-flight invokes complete.
	Draining bool `json:"draining,omitempty"`
}

// DrainRequest asks the gateway to drain one host: quiesce it,
// live-migrate its warm guests, and remove it from the ring.
type DrainRequest struct {
	Host string `json:"host"`
}

// MigrationSummary reports one guest migration inside a drain.
type MigrationSummary struct {
	// Guest is the migrated guest's ID on the destination (or the
	// still-running source guest ID when the migration rolled back).
	Guest string `json:"guest"`
	// Outcome is "migrated" or "rolled_back".
	Outcome string `json:"outcome"`
	// DowntimeNs is the modeled blackout window for this guest.
	DowntimeNs int64 `json:"downtime_ns"`
	// Resumes counts mid-stream recoveries.
	Resumes int `json:"resumes"`
	// TransferredBytes counts stream bytes delivered (resent bytes
	// included).
	TransferredBytes int64 `json:"transferred_bytes"`
}

// DrainReport is the POST /v1/drain response.
type DrainReport struct {
	// Host is the drained host.
	Host string `json:"host"`
	// TEE is the host's platform kind.
	TEE string `json:"tee,omitempty"`
	// RoutingOnly marks a drain that only quiesced and removed routing
	// entries (a gateway fronting external hosts cannot migrate guest
	// state it does not hold).
	RoutingOnly bool `json:"routing_only,omitempty"`
	// Quiesced counts routing entries taken out of rotation.
	Quiesced int `json:"quiesced"`
	// Removed counts routing entries deleted from the ring.
	Removed int `json:"removed"`
	// Migrations reports the per-guest migrations a full drain ran.
	Migrations []MigrationSummary `json:"migrations,omitempty"`
}

// ErrorResponse is the JSON error envelope. Code, Layer and Retryable
// carry the cberr taxonomy across the wire so clients can reconstruct
// a classified error with errors.Is support.
type ErrorResponse struct {
	Error     string      `json:"error"`
	Code      cberr.Code  `json:"code,omitempty"`
	Layer     cberr.Layer `json:"layer,omitempty"`
	Retryable bool        `json:"retryable,omitempty"`
	// RetryAfterMS is the server's retry timing advice in
	// milliseconds (sub-second precision the integer-second HTTP
	// Retry-After header cannot carry; the header is still set for
	// proxies and non-ConfBench clients).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// WriteError writes an error envelope, deriving the taxonomy fields
// from err. Unclassified errors fall back to the status-code mapping.
// Retry advice attached via cberr.WithRetryAfter rides out twice: as
// the standard Retry-After header (integer seconds, rounded up so the
// advice is never shortened) and as retry_after_ms in the envelope
// (full precision for ConfBench clients).
func WriteError(w http.ResponseWriter, status int, err error) {
	env := ErrorEnvelope(err)
	if env.Code == "" {
		env.Code = cberr.CodeForHTTPStatus(status)
	}
	if env.RetryAfterMS > 0 {
		secs := (env.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	WriteJSON(w, status, *env)
}

// ErrorEnvelope renders err into the wire envelope without writing
// it: the taxonomy fields when err is classified (Code left empty
// otherwise — WriteError falls back to the status mapping), plus
// millisecond retry advice. The front tier stores async failures in
// this shape so a poll returns the same envelope a sync call would
// have.
func ErrorEnvelope(err error) *ErrorResponse {
	env := &ErrorResponse{Error: err.Error()}
	var ce *cberr.Error
	if errors.As(err, &ce) {
		env.Code, env.Layer, env.Retryable = ce.Code, ce.Layer, ce.Retryable
	}
	if ra := cberr.RetryAfterOf(err); ra > 0 {
		env.RetryAfterMS = int64((ra + time.Millisecond - 1) / time.Millisecond)
	}
	return env
}

// Client retry and timeout policy.
const (
	// attemptTimeout bounds the whole HTTP exchange of one attempt.
	attemptTimeout = 120 * time.Second
	// DefaultMaxAttempts is the attempt budget for retryable failures.
	DefaultMaxAttempts = 3
	// firstBackoff is the first retry's delay, doubled per retry.
	firstBackoff = 50 * time.Millisecond
	// maxBackoff bounds the exponential backoff. Without a cap, a
	// generous attempt budget doubles the delay past any useful wait —
	// and eventually overflows time.Duration into a negative (i.e.
	// zero) sleep, hammering the gateway exactly when it is least able
	// to take it.
	maxBackoff = 5 * time.Second
	// backoffJitter is the ± fraction applied to each sleep so a burst
	// of failed clients doesn't retry in lockstep.
	backoffJitter = 0.20
	// DefaultAwaitWait is the per-round-trip wait AwaitResult asks the
	// front tier to park a result poll for (the server clamps it).
	DefaultAwaitWait = 2 * time.Second
)

// Client is an HTTP client for the gateway REST API. Every method
// takes a context that bounds the whole call, including retries;
// cancellation surfaces as cberr.ErrCanceled.
type Client struct {
	// peer is the gateway; each attempt is one peer.Exchange.
	peer   *Peer
	tenant string

	// transport, when set, carries frame-mappable calls (invoke,
	// attest, health) instead of the HTTP client; everything without a
	// frame mapping still goes over HTTP.
	transport Transport

	// maxAttempts caps the total tries per call. Only failures the
	// taxonomy marks retryable (unavailable, upstream, deadline) are
	// retried; cancellation never is.
	maxAttempts int
	// backoff (firstBackoff) and backoffCap (maxBackoff) pace the
	// retries; tests shorten them.
	backoff, backoffCap time.Duration
}

// Option configures a Client built by New.
type Option func(*Client)

// WithRetries caps the total attempts per call, including the first.
// Values below 1 mean a single attempt.
func WithRetries(attempts int) Option {
	return func(c *Client) { c.maxAttempts = attempts }
}

// WithTenant stamps every request with the given tenant identity (the
// HeaderTenant header). The front tier's admission control — token
// buckets and in-flight quotas — accounts the request against that
// tenant; unstamped requests fall under TenantDefault.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// WithTransport routes the client's frame-mappable calls — invoke,
// attest, health — through t (typically wire.NewBinary, which keeps
// a small pool of persistent multiplexed connections to the front
// door). Calls with no frame mapping (uploads, async polls, metrics)
// keep using HTTP; the retry/backoff policy applies identically to
// both carriers. The caller owns t's lifecycle (its Close).
func WithTransport(t Transport) Option {
	return func(c *Client) { c.transport = t }
}

// New builds a client for the gateway at baseURL, configured by opts.
// The URL must be absolute with an http or https scheme; the returned
// client has an explicit per-attempt timeout so a wedged gateway
// cannot hang callers that forget a context deadline. It follows no
// redirects.
func New(baseURL string, opts ...Option) (*Client, error) {
	p, err := NewPeer(baseURL)
	if err != nil {
		return nil, err
	}
	c := &Client{
		peer:        p,
		maxAttempts: DefaultMaxAttempts,
		backoff:     firstBackoff,
		backoffCap:  maxBackoff,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// jsonContentType is the Content-Type value of every JSON body the
// doors write, shared by every header that carries it: nothing writes
// through it.
var jsonContentType = []string{"application/json"}

// httpBody strips the tenant wrapper a frame-mappable call carries its
// request in: binary frames have no headers, so the tenant rides in
// the payload, while over HTTP it rides in HeaderTenant.
func httpBody(in any) any {
	switch ti := in.(type) {
	case *TenantedInvoke:
		return &ti.Req
	case *TenantedAttest:
		return &ti.Req
	}
	return in
}

// do runs one request with retry-with-backoff on retryable errors.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	// The route table says which calls have a frame mapping; the rest —
	// including any path carrying a query string, which no frame can
	// encode — go over HTTP.
	rt, _ := RouteFor(method, path)
	overWire := c.transport != nil && rt.Req != 0
	var body []byte
	if in != nil && !overWire {
		bp := bodyPool.Get().(*[]byte)
		defer putBody(bp)
		var err error
		body, err = appendBody(*bp, httpBody(in))
		if *bp = body; err != nil {
			return cberr.Wrap(cberr.CodeInvalid, cberr.LayerClient,
				fmt.Errorf("api: marshal request: %w", err))
		}
	}
	attempts := c.maxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff, limit := c.backoff, c.backoffCap
	if backoff > limit {
		backoff = limit
	}
	var err error
	for attempt := 1; ; attempt++ {
		if overWire {
			err = c.transport.RoundTrip(ctx, c.peer.base.Host, path, in, out)
		} else {
			err = c.peer.Exchange(ctx, method, path, c.tenant, body, out)
		}
		if err == nil || attempt >= attempts || !cberr.Retryable(err) {
			return err
		}
		// A server-supplied Retry-After wins over the computed backoff
		// — the shedder knows when capacity returns better than our
		// doubling guess — but never past the configured cap, and with
		// no jitter: the server already spreads its advice.
		sleep := jitter(backoff)
		if ra := cberr.RetryAfterOf(err); ra > 0 {
			sleep = ra
			if sleep > limit {
				sleep = limit
			}
		}
		select {
		case <-ctx.Done():
			return cberr.From(ctx.Err(), cberr.LayerClient)
		case <-time.After(sleep):
		}
		// Double under the cap; comparing before the multiply (rather
		// than clamping after) also keeps the duration from ever
		// overflowing into a negative sleep.
		if backoff > limit/2 {
			backoff = limit
		} else {
			backoff *= 2
		}
	}
}

// jitter spreads d by ±backoffJitter so concurrent clients recovering
// from the same outage don't retry in lockstep.
func jitter(d time.Duration) time.Duration {
	f := 1 - backoffJitter + 2*backoffJitter*rand.Float64()
	return time.Duration(float64(d) * f)
}

// appendBody appends json.Marshal(in) to b, through the typed encoder
// for an edge body.
func appendBody(b []byte, in any) ([]byte, error) {
	if b, ok, err := appendEdge(b, in); ok {
		return b, err
	}
	j, err := json.Marshal(in)
	return append(b, j...), err
}

// retryAfterFrom recovers the server's retry advice from a response:
// the envelope's millisecond field when present (full precision),
// else the standard Retry-After header (integer seconds).
func retryAfterFrom(resp *http.Response, env ErrorResponse) time.Duration {
	if env.RetryAfterMS > 0 {
		return time.Duration(env.RetryAfterMS) * time.Millisecond
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// maxResponse bounds the body a response is read up to.
const maxResponse = 16 << 20

func decodeResponse(resp *http.Response, path string, out any) error {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	var data []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxResponse {
		data, err = readFull(resp.Body, *bp, int(n))
		*bp = data
	} else {
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	}
	if err != nil {
		return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerClient,
			fmt.Errorf("api: read %s response: %w", path, err))
	}
	// Any 2xx carries a decodable body: async submissions answer 202.
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e ErrorResponse
		if unmarshalEdge(data, &e) == nil && e.Error != "" {
			code, retryable := e.Code, e.Retryable
			if code == "" { // legacy peer without taxonomy fields
				code = cberr.CodeForHTTPStatus(resp.StatusCode)
				retryable = cberr.New(code, "", "").Retryable
			}
			ce := cberr.FromWire(code, e.Layer, retryable, e.Error)
			ce.RetryAfter = retryAfterFrom(resp, e)
			return fmt.Errorf("api: %s: %w (status %d)", path, ce, resp.StatusCode)
		}
		code := cberr.CodeForHTTPStatus(resp.StatusCode)
		ce := cberr.FromWire(code, "", cberr.New(code, "", "").Retryable,
			fmt.Sprintf("status %d", resp.StatusCode))
		ce.RetryAfter = retryAfterFrom(resp, ErrorResponse{})
		return fmt.Errorf("api: %s: %w", path, ce)
	}
	// 204 is the long-poll's "still pending" answer: deliberately
	// body-free, so out keeps whatever the caller seeded it with.
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := unmarshalEdge(data, out); err != nil {
		return cberr.Wrap(cberr.CodeInternal, cberr.LayerClient,
			fmt.Errorf("api: decode %s response: %w", path, err))
	}
	return nil
}

// call runs one request and returns its typed response (the zero
// value on error) — the client-side twin of the door's typed handlers.
func call[Resp any](ctx context.Context, c *Client, method, path string, in any) (Resp, error) {
	var out Resp
	if err := c.do(ctx, method, path, in, &out); err != nil {
		var zero Resp
		return zero, err
	}
	return out, nil
}

// Upload registers a function.
func (c *Client) Upload(ctx context.Context, fn faas.Function) error {
	return c.do(ctx, http.MethodPost, PathV1Functions, UploadRequest{Function: fn}, nil)
}

// Functions lists registered function names.
func (c *Client) Functions(ctx context.Context) ([]string, error) {
	return call[[]string](ctx, c, http.MethodGet, PathV1Functions, nil)
}

// Invoke executes a registered function.
func (c *Client) Invoke(ctx context.Context, req InvokeRequest) (InvokeResponse, error) {
	return call[InvokeResponse](ctx, c, http.MethodPost, PathV1Invoke, &TenantedInvoke{Tenant: c.tenant, Req: req})
}

// InvokeAsync submits a function execution without holding the
// connection for its duration: the front tier answers immediately
// with an invoke ID, and the result is fetched later with ResultWait
// (or AwaitResult). Only deployments with a front tier serve this path.
func (c *Client) InvokeAsync(ctx context.Context, req InvokeRequest) (AsyncSubmitResponse, error) {
	return call[AsyncSubmitResponse](ctx, c, http.MethodPost, PathV1InvokeAsync, req)
}

// ResultWait long-polls one async invoke: the front tier parks the
// request until the invoke completes or wait elapses (clamped
// server-side to the tier's MaxResultWait). A still-pending timeout
// answers 204 with no body, which surfaces here as a pending record —
// poll again. wait <= 0 is a plain poll of the lifecycle record: a
// pending record answers with Status "pending" and no payload, and an
// unknown or expired ID is a not_found error.
func (c *Client) ResultWait(ctx context.Context, id string, wait time.Duration) (AsyncResult, error) {
	// Seed the pending shape: a 204 leaves it untouched.
	out := AsyncResult{ID: id, Status: AsyncPending}
	p := PathV1Invoke + "/" + url.PathEscape(id)
	if wait > 0 {
		p += "?wait=" + url.QueryEscape(wait.String())
	}
	if err := c.do(ctx, http.MethodGet, p, nil, &out); err != nil {
		return AsyncResult{}, err
	}
	return out, nil
}

// AwaitResult waits for an async invoke via server-side long-polls:
// each round trip parks on the front tier for up to interval (0 =
// DefaultAwaitWait) instead of sleeping client-side between polls, so
// completion is seen one network round trip after it happens. A
// completed-with-error invoke surfaces its reconstructed classified
// error, exactly as the synchronous path would have.
func (c *Client) AwaitResult(ctx context.Context, id string, interval time.Duration) (InvokeResponse, error) {
	if interval <= 0 {
		interval = DefaultAwaitWait
	}
	for {
		res, err := c.ResultWait(ctx, id, interval)
		if err != nil {
			return InvokeResponse{}, err
		}
		switch res.Status {
		case AsyncDone:
			if res.Response == nil {
				return InvokeResponse{}, cberr.Newf(cberr.CodeInternal, cberr.LayerClient,
					"api: async invoke %s done without a response", id)
			}
			return *res.Response, nil
		case AsyncError:
			e := res.Error
			if e == nil {
				return InvokeResponse{}, cberr.Newf(cberr.CodeInternal, cberr.LayerClient,
					"api: async invoke %s failed without an error record", id)
			}
			return InvokeResponse{}, fmt.Errorf("api: async invoke %s: %w", id,
				cberr.FromWire(e.Code, e.Layer, e.Retryable, e.Error))
		}
		if err := ctx.Err(); err != nil {
			return InvokeResponse{}, cberr.From(err, cberr.LayerClient)
		}
	}
}

// Attest requests attestation evidence from a confidential VM.
func (c *Client) Attest(ctx context.Context, req AttestRequest) (AttestResponse, error) {
	return call[AttestResponse](ctx, c, http.MethodPost, PathV1Attest, &TenantedAttest{Tenant: c.tenant, Req: req})
}

// Metrics fetches the gateway's request accounting.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	return call[Metrics](ctx, c, http.MethodGet, PathV1Metrics, nil)
}

// Obs fetches the gateway's observability snapshot (counters, gauges,
// histograms) in JSON form. The same endpoint serves the Prometheus
// text format when asked without the JSON accept header.
func (c *Client) Obs(ctx context.Context) (obs.Snapshot, error) {
	return call[obs.Snapshot](ctx, c, http.MethodGet, PathV1Obs+"?format=json", nil)
}

// ObsCluster fetches the federated cluster snapshot: every host
// agent's registry merged under host labels, plus windowed rates.
// window is the rate window in scrape samples (0 = server default).
func (c *Client) ObsCluster(ctx context.Context, window int) (obs.ClusterSnapshot, error) {
	path := PathV1ObsCluster + "?format=json"
	if window > 0 {
		path += "&window=" + fmt.Sprint(window)
	}
	return call[obs.ClusterSnapshot](ctx, c, http.MethodGet, path, nil)
}

// ObsEvents fetches the gateway's invoke flight recorder (retained
// events, oldest first).
func (c *Client) ObsEvents(ctx context.Context) ([]obs.Event, error) {
	return c.ObsEventsWhere(ctx, EventsQuery{})
}

// EventsQuery narrows an ObsEventsWhere fetch; the filtering happens
// server-side on the recorder ring. The zero value fetches everything.
type EventsQuery struct {
	// Limit keeps only the newest N matching events (0 = all).
	Limit int
	// ErrOnly keeps only failed events.
	ErrOnly bool
	// Trace keeps only events whose trace ID matches exactly
	// (e.g. "inv-42").
	Trace string
}

// ObsEventsWhere fetches the flight recorder filtered by q.
func (c *Client) ObsEventsWhere(ctx context.Context, q EventsQuery) ([]obs.Event, error) {
	vals := url.Values{}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.ErrOnly {
		vals.Set("err", "1")
	}
	if q.Trace != "" {
		vals.Set("trace", q.Trace)
	}
	path := PathV1ObsEvents
	if enc := vals.Encode(); enc != "" {
		path += "?" + enc
	}
	return call[[]obs.Event](ctx, c, http.MethodGet, path, nil)
}

// SLOStatus fetches the gateway's per-objective SLO evaluation. An
// empty list when the deployment declares no objectives; pre-SLO
// gateways return a not-found error callers should treat as "no SLO
// plane".
func (c *Client) SLOStatus(ctx context.Context) ([]slo.Status, error) {
	return call[[]slo.Status](ctx, c, http.MethodGet, PathV1ObsSLO, nil)
}

// Alerts fetches the alert timeline: every SLO state transition
// observed (or restored from the telemetry spill), oldest first.
func (c *Client) Alerts(ctx context.Context) ([]slo.Transition, error) {
	return call[[]slo.Transition](ctx, c, http.MethodGet, PathV1ObsAlerts, nil)
}

// Pools lists the gateway's TEE pools.
func (c *Client) Pools(ctx context.Context) ([]PoolInfo, error) {
	return call[[]PoolInfo](ctx, c, http.MethodGet, PathV1Pools, nil)
}

// DrainHost asks the gateway to drain host: quiesce its endpoints,
// live-migrate its warm guests to surviving hosts of the same kind,
// and remove it from the routing ring.
func (c *Client) DrainHost(ctx context.Context, host string) (*DrainReport, error) {
	return call[*DrainReport](ctx, c, http.MethodPost, PathV1Drain, DrainRequest{Host: host})
}

// Health checks gateway liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, PathV1Health, nil, nil)
}
