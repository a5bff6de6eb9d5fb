package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
)

// HTTPJSON is the legacy hop carrier: one JSON-over-HTTP exchange per
// call, relying on net/http keep-alive for connection reuse. The body
// of RoundTrip is the gateway's historical forward() extracted
// verbatim — same error classification, same envelope handling — so
// selecting "httpjson" reproduces the pre-transport behavior exactly.
type HTTPJSON struct {
	client *http.Client
}

// NewHTTPJSON builds the JSON-over-HTTP transport with the same 120 s
// exchange timeout the gateway's embedded client used.
func NewHTTPJSON() *HTTPJSON {
	return &HTTPJSON{client: &http.Client{Timeout: 120 * time.Second}}
}

// Name implements Transport.
func (t *HTTPJSON) Name() string { return TransportHTTPJSON }

// Close drops idle keep-alive connections.
func (t *HTTPJSON) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// RoundTrip implements Transport. A nil in performs a GET (health and
// obs-scrape shapes); otherwise the request POSTs as JSON. An
// api.TenantedInvoke unwraps to its inner request with the tenant in
// the X-Confbench-Tenant header, mirroring what the api client sends.
func (t *HTTPJSON) RoundTrip(ctx context.Context, addr, path string, in, out any) error {
	tenant := ""
	switch ti := in.(type) {
	case *api.TenantedInvoke:
		tenant, in = ti.Tenant, &ti.Req
	case *api.TenantedAttest:
		tenant, in = ti.Tenant, &ti.Req
	}
	var req *http.Request
	var err error
	if in == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
		if err != nil {
			return cberr.Wrap(cberr.CodeInternal, cberr.LayerGateway,
				fmt.Errorf("wire: request to %s: %w", addr, err))
		}
	} else {
		body, merr := json.Marshal(in)
		if merr != nil {
			return cberr.Wrap(cberr.CodeInternal, cberr.LayerGateway,
				fmt.Errorf("wire: marshal forward body: %w", merr))
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
		if err != nil {
			return cberr.Wrap(cberr.CodeInternal, cberr.LayerGateway,
				fmt.Errorf("wire: forward to %s: %w", addr, err))
		}
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set(api.HeaderTenant, tenant)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cberr.From(fmt.Errorf("wire: forward to %s: %w", addr, cerr), cberr.LayerGateway)
		}
		return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
			fmt.Errorf("wire: forward to %s: %w", addr, err))
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
			fmt.Errorf("wire: read %s response: %w", addr, err))
	}
	if resp.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			if e.Code != "" {
				// Re-attach the upstream classification so canceled and
				// deadline verdicts keep their identity across the hop,
				// and a shed its retry advice, as the error frame does.
				ce := cberr.FromWire(e.Code, e.Layer, e.Retryable, e.Error)
				ce.RetryAfter = time.Duration(e.RetryAfterMS) * time.Millisecond
				return fmt.Errorf("wire: peer %s: %w", addr, ce)
			}
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
				fmt.Errorf("wire: peer %s: %s", addr, e.Error))
		}
		return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
			fmt.Errorf("wire: peer %s: status %d", addr, resp.StatusCode))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
			fmt.Errorf("wire: decode %s response: %w", addr, err))
	}
	return nil
}
