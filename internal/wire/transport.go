package wire

import (
	"context"
	"fmt"

	"confbench/internal/api"
	"confbench/internal/obs"
)

// Transport is the hop-carrier interface, defined in internal/api so
// the api client can accept one without importing this package.
type Transport = api.Transport

// Transport names accepted by -transport flags and the WithTransport
// options.
const (
	TransportHTTPJSON = "httpjson"
	TransportBinary   = "binary"
)

// ValidTransport reports whether name selects a known transport. The
// empty string is valid and means the default (httpjson).
func ValidTransport(name string) bool {
	switch name {
	case "", TransportHTTPJSON, TransportBinary:
		return true
	}
	return false
}

// Call is t.RoundTrip with typed ends. The binary carrier's codecs read
// *req and write *resp in place without keeping either, so on it both
// may live in the caller's frame; any other carrier is reached through
// the interface, which lets its arguments escape, and gets heap copies.
func Call[Req, Resp any](ctx context.Context, t Transport, addr, path string, req *Req, resp *Resp) error {
	if b, ok := t.(*Binary); ok {
		return b.RoundTrip(ctx, addr, path, req, resp)
	}
	in, out := *req, *resp
	err := t.RoundTrip(ctx, addr, path, &in, &out)
	*resp = out
	return err
}

// NewTransport builds the named transport. reg may be nil; the binary
// transport then runs without wire metrics.
func NewTransport(name string, reg *obs.Registry) (Transport, error) {
	switch name {
	case "", TransportHTTPJSON:
		return NewHTTPJSON(), nil
	case TransportBinary:
		return NewBinary(reg), nil
	}
	return nil, fmt.Errorf("wire: unknown transport %q (want %s or %s)", name, TransportHTTPJSON, TransportBinary)
}
