package api

import (
	"fmt"
	"net/http"
)

// Paths of the gateway surface — one constant per route. A front tier
// serves the same paths (plus the async pair, minus drain), so either
// can stand behind the same client.
const (
	PathV1Functions = "/v1/functions"
	PathV1Invoke    = "/v1/invoke"
	// PathV1InvokeAsync submits an invoke without holding the
	// connection: the response carries an invoke ID immediately and
	// the result is fetched later from PathV1Invoke + "/{id}".
	PathV1InvokeAsync = "/v1/invoke/async"
	PathV1Attest      = "/v1/attest"
	PathV1Pools       = "/v1/pools"
	// PathV1Drain quiesces a host, live-migrates its warm guests to the
	// surviving hosts of the same TEE kind, and removes it from the
	// routing ring.
	PathV1Drain   = "/v1/drain"
	PathV1Health  = "/v1/health"
	PathV1Metrics = "/v1/metrics"
	PathV1Obs     = "/v1/obs"
	// PathV1ObsCluster serves the federated cluster view: every host
	// agent's registry merged under host labels, plus windowed rates.
	PathV1ObsCluster = "/v1/obs/cluster"
	// PathV1ObsEvents serves the door's flight recorder: invoke events
	// on a gateway, alert transitions on every door with objectives.
	PathV1ObsEvents = "/v1/obs/events"
	// PathV1ObsSLO serves the SLO engine's per-objective status: state,
	// burn rates, and remaining error budget.
	PathV1ObsSLO = "/v1/obs/slo"
	// PathV1ObsAlerts serves the alert timeline: SLO state transitions
	// with trace attribution, durable across restarts via the spill.
	PathV1ObsAlerts = "/v1/obs/alerts"
)

// Paths served by guest agents inside VMs — what the gateway
// dispatches to and its federation scraper pulls.
const (
	GuestV1Invoke = "/guest/v1/invoke"
	GuestV1Attest = "/guest/v1/attest"
	GuestV1Health = "/guest/v1/health"
	// GuestV1Obs serves the host process's metrics registry.
	GuestV1Obs = "/guest/v1/obs"
)

// Frame identifies what a binary frame's payload encodes (wire.Type
// is this type: the enum lives here so the route table can name frames
// without api importing wire).
type Frame uint8

// Frame types. The zero value is invalid — an all-zeroes header never
// parses as a usable frame — and doubles as "no frame mapping" in the
// route table.
const (
	FrameInvokeReq      Frame = 1  // guest-hop invoke request (GuestInvokeRequest)
	FrameInvokeResp     Frame = 2  // invoke response (InvokeResponse)
	FrameFrontInvokeReq Frame = 3  // front-door invoke request (TenantedInvoke)
	FrameAttestReq      Frame = 4  // attestation request (AttestRequest, + tenant)
	FrameAttestResp     Frame = 5  // attestation response (AttestResponse)
	FrameHealthReq      Frame = 6  // health probe (empty payload)
	FrameHealthResp     Frame = 7  // health response (detail string)
	FrameObsReq         Frame = 8  // obs scrape request (empty payload)
	FrameObsResp        Frame = 9  // obs snapshot (JSON-encoded obs.Snapshot)
	FrameError          Frame = 10 // error response (cberr code/layer/retryability/retry-after/message)
)

// Valid reports whether t is a known frame type.
func (t Frame) Valid() bool { return t >= FrameInvokeReq && t <= FrameError }

// String names the frame type for metric labels and errors.
func (t Frame) String() string {
	switch t {
	case FrameInvokeReq:
		return "invoke_req"
	case FrameInvokeResp:
		return "invoke_resp"
	case FrameFrontInvokeReq:
		return "front_invoke_req"
	case FrameAttestReq:
		return "attest_req"
	case FrameAttestResp:
		return "attest_resp"
	case FrameHealthReq:
		return "health_req"
	case FrameHealthResp:
		return "health_resp"
	case FrameObsReq:
		return "obs_req"
	case FrameObsResp:
		return "obs_resp"
	case FrameError:
		return "error"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Door names one of the three front doors a route can be mounted on.
type Door uint8

// The doors, as a bit set so a Route lists every door serving it.
const (
	DoorGateway Door = 1 << iota
	DoorTier
	DoorGuest
)

// Route is one entry of the ConfBench API surface.
type Route struct {
	Method string
	Path   string
	// Req and Resp are the binary frames carrying the route (both zero
	// = reachable over HTTP only).
	Req, Resp Frame
	// Status is the success status when it is not 200.
	Status int
	// Doors lists the doors mounting the route.
	Doors Door
	// Instrumented routes feed confbench_http_requests_total and
	// confbench_http_request_seconds on a door that asks for request
	// metrics (only the gateway does: the tier's SLO engine reads the
	// shards' counts and must not see each request twice, the guest
	// keeps confbench_hostagent_*). The ops plane never is: scraping
	// metrics must not move them.
	Instrumented bool
}

// Routes is the whole surface, written down once: the front-door
// server builds its mux and frame dispatch from it, and the carriers
// (wire's binary encoder, Client) look the path→frame mapping up here.
var Routes = []Route{
	{Method: http.MethodPost, Path: PathV1Functions, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodGet, Path: PathV1Functions, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodPost, Path: PathV1Invoke, Req: FrameFrontInvokeReq, Resp: FrameInvokeResp, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodPost, Path: PathV1InvokeAsync, Status: http.StatusAccepted, Doors: DoorTier},
	{Method: http.MethodGet, Path: PathV1Invoke + "/{id}", Doors: DoorTier},
	{Method: http.MethodPost, Path: PathV1Attest, Req: FrameAttestReq, Resp: FrameAttestResp, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodGet, Path: PathV1Pools, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodPost, Path: PathV1Drain, Doors: DoorGateway, Instrumented: true},
	{Method: http.MethodGet, Path: PathV1Metrics, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodGet, Path: PathV1Health, Req: FrameHealthReq, Resp: FrameHealthResp, Doors: DoorGateway | DoorTier, Instrumented: true},
	{Method: http.MethodGet, Path: PathV1Obs, Req: FrameObsReq, Resp: FrameObsResp, Doors: DoorGateway | DoorTier},
	{Method: http.MethodGet, Path: PathV1ObsCluster, Doors: DoorGateway | DoorTier},
	{Method: http.MethodGet, Path: PathV1ObsEvents, Doors: DoorGateway | DoorTier},
	{Method: http.MethodGet, Path: PathV1ObsSLO, Doors: DoorGateway | DoorTier},
	{Method: http.MethodGet, Path: PathV1ObsAlerts, Doors: DoorGateway | DoorTier},

	{Method: http.MethodPost, Path: GuestV1Invoke, Req: FrameInvokeReq, Resp: FrameInvokeResp, Doors: DoorGuest},
	{Method: http.MethodPost, Path: GuestV1Attest, Req: FrameAttestReq, Resp: FrameAttestResp, Doors: DoorGuest},
	{Method: http.MethodGet, Path: GuestV1Health, Req: FrameHealthReq, Resp: FrameHealthResp, Doors: DoorGuest},
	{Method: http.MethodGet, Path: GuestV1Obs, Req: FrameObsReq, Resp: FrameObsResp, Doors: DoorGuest},
}

// RouteFor looks one route up by method and exact path (no query).
func RouteFor(method, path string) (Route, bool) {
	for i := range Routes {
		if Routes[i].Path == path && Routes[i].Method == method {
			return Routes[i], true
		}
	}
	return Route{}, false
}
