package confbench

import (
	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/fronttier"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// Re-exports of the types a ConfBench consumer touches on every call,
// so typical programs import only the root package. The internal
// packages stay the source of truth; these are aliases, not copies.

// Function is a FaaS function definition uploaded to the gateway.
type Function = faas.Function

// InvokeRequest asks the gateway to run a function in a secure or
// normal VM on a chosen TEE.
type InvokeRequest = api.InvokeRequest

// InvokeResponse carries the result: virtual wall time, the perf
// metrics piggybacked from the guest, and — when tracing was
// requested — the span tree of the invocation.
type InvokeResponse = api.InvokeResponse

// Kind identifies a TEE platform.
type Kind = tee.Kind

// The platforms of the paper's test bed.
const (
	KindTDX = tee.KindTDX
	KindSEV = tee.KindSEV
	KindCCA = tee.KindCCA
)

// Client is the REST client returned by Cluster.Client.
type Client = api.Client

// SpanData is one node of a trace span tree (see InvokeRequest.Trace
// and Client.Obs).
type SpanData = obs.SpanData

// ObsSnapshot is a point-in-time copy of a metrics registry, as
// returned by Client.Obs.
type ObsSnapshot = obs.Snapshot

// ClusterObsSnapshot is the federated cluster view served by GET
// /v1/obs/cluster: every host agent's registry merged under host
// labels, plus windowed rates, as returned by Client.ObsCluster.
type ClusterObsSnapshot = obs.ClusterSnapshot

// ObsEvent is one invoke's flight-recorder record, as returned by
// Client.ObsEvents.
type ObsEvent = obs.Event

// RenderTrace formats a span tree as an indented text tree, one line
// per span with layer, name, and duration.
func RenderTrace(d *SpanData) string { return obs.RenderTree(d) }

// TenantLimits caps one tenant at the front tier: a token-bucket
// invoke rate (RatePerSec/Burst) and an in-flight quota (MaxInFlight).
// Zero fields are unlimited. See WithTenantQuota.
type TenantLimits = fronttier.TenantLimits

// AsyncSubmitResponse acknowledges an async invoke submission with
// the invoke ID to poll.
type AsyncSubmitResponse = api.AsyncSubmitResponse

// AsyncResult is one async invoke's lifecycle record, as returned by
// Client.ResultWait: pending, done with the response, or error with the
// envelope.
type AsyncResult = api.AsyncResult

// Async invoke lifecycle states (AsyncResult.Status).
const (
	AsyncPending = api.AsyncPending
	AsyncDone    = api.AsyncDone
	AsyncError   = api.AsyncError
)

// HeaderTenant carries the caller's tenant identity to the front
// tier; absent means TenantDefault. Client-side, prefer the
// WithClientTenant option.
const HeaderTenant = api.HeaderTenant

// TenantDefault is the tenant unstamped requests fall under.
const TenantDefault = api.TenantDefault

// DrainReport summarizes one host drain: endpoints quiesced and
// removed, and the per-guest live-migration outcomes, as returned by
// Cluster.DrainHost and Client.DrainHost.
type DrainReport = api.DrainReport

// MigrationSummary is one guest's migration inside a DrainReport.
type MigrationSummary = api.MigrationSummary

// ClientOption configures a Client built by NewClient.
type ClientOption = api.Option

// WithClientTenant stamps every request from a Client with a tenant
// identity, so the front tier applies that tenant's quotas.
func WithClientTenant(tenant string) ClientOption { return api.WithTenant(tenant) }

// NewClient returns a REST client for an already-running deployment's
// base URL — a front tier or a gateway; both serve the same API.
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	return api.New(baseURL, opts...)
}
