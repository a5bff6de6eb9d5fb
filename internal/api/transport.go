package api

import "context"

// Transport carries one hop of the invoke pipeline — the gateway→guest
// forward, the federation scrape, or the client→front-door exchange —
// without fixing the carrier. Two implementations live in
// internal/wire: "httpjson" (one Peer.Exchange per call, over the
// REST client's pool) and "binary" (a persistent
// multiplexed connection per peer carrying length-prefixed binary
// frames with out-of-order completion by correlation ID).
//
// The interface is defined here, not in internal/wire, because the
// wire codecs encode this package's request/response types — api must
// stay import-cycle-free below wire.
type Transport interface {
	// Name identifies the transport ("httpjson", "binary").
	Name() string
	// RoundTrip performs one request/response exchange with the peer
	// at addr (host:port). path selects the logical route (the same
	// path constants the HTTP surface serves, an optional query
	// suffix is ignored by binary framing); in is the request payload
	// (nil for GET-shaped calls like health and obs scrapes) and the
	// response decodes into out (nil to discard). Errors carry the
	// cberr taxonomy — code, layer, retryability, retry-after — across
	// the hop regardless of carrier.
	RoundTrip(ctx context.Context, addr, path string, in, out any) error
	// Close releases persistent per-peer state (the idle HTTP
	// connections of the shared pool, multiplexed binary connections).
	Close() error
}

// TenantedInvoke carries an invoke plus the caller's tenant identity
// through a Transport. HTTP rides the tenant in the X-Confbench-Tenant
// header; binary frames have no headers, so the tenant travels in the
// front-door invoke frame's payload instead.
type TenantedInvoke struct {
	Tenant string
	Req    InvokeRequest
}

// TenantedAttest is the attestation analogue of TenantedInvoke.
type TenantedAttest struct {
	Tenant string
	Req    AttestRequest
}

// Untenant strips the tenant wrapper a frame-mappable call carries its
// request in, returning the inner request and the tenant: binary
// frames have no headers, so the tenant rides in the payload, while
// over HTTP the request is the body and the tenant rides in
// HeaderTenant. Any other value comes back as it is, with no tenant.
func Untenant(in any) (req any, tenant string) {
	switch ti := in.(type) {
	case *TenantedInvoke:
		return &ti.Req, ti.Tenant
	case *TenantedAttest:
		return &ti.Req, ti.Tenant
	}
	return in, ""
}
