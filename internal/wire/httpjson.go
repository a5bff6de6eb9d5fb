package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"confbench/internal/api"
	"confbench/internal/cberr"
)

// HTTPJSON is the JSON-over-HTTP hop carrier: one api.Peer.Exchange
// per call, so it shares the REST client's keep-alive pool and error
// classification. A peer's error envelope comes back as the peer
// classified it; a failure of the exchange itself (refused, reset,
// timed out, undecodable) is reported at the gateway layer, as the
// binary carrier reports it.
type HTTPJSON struct {
	peers sync.Map // host:port → *api.Peer
}

// NewHTTPJSON builds the JSON-over-HTTP transport. Each exchange is
// bounded by the REST client's 120 s attempt timeout as well as by ctx.
func NewHTTPJSON() *HTTPJSON { return &HTTPJSON{} }

// Name implements Transport.
func (t *HTTPJSON) Name() string { return TransportHTTPJSON }

// Close drops the idle keep-alive connections of the process-wide pool
// the carrier shares with the REST client.
func (t *HTTPJSON) Close() error {
	api.CloseIdleConnections()
	return nil
}

// RoundTrip implements Transport. A nil in performs a GET (health and
// obs-scrape shapes); otherwise the request POSTs as JSON. An
// api.TenantedInvoke or api.TenantedAttest unwraps to its inner request
// with the tenant in the X-Confbench-Tenant header, as the api client
// sends it.
func (t *HTTPJSON) RoundTrip(ctx context.Context, addr, path string, in, out any) error {
	in, tenant := api.Untenant(in)
	p, err := t.peer(addr)
	if err != nil {
		return atGateway(addr, err)
	}
	method, body := http.MethodGet, []byte(nil)
	if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return cberr.Wrap(cberr.CodeInternal, cberr.LayerGateway,
				fmt.Errorf("wire: marshal forward body: %w", err))
		}
		method = http.MethodPost
	}
	if err := p.Exchange(ctx, method, path, tenant, body, out); err != nil {
		return atGateway(addr, err)
	}
	return nil
}

// peer returns the api.Peer for addr, parsing it on first use.
func (t *HTTPJSON) peer(addr string) (*api.Peer, error) {
	if p, ok := t.peers.Load(addr); ok {
		return p.(*api.Peer), nil
	}
	p, err := api.NewPeer("http://" + addr)
	if err != nil {
		return nil, err
	}
	actual, _ := t.peers.LoadOrStore(addr, p)
	return actual.(*api.Peer), nil
}

// atGateway names addr in err and moves a failure the exchange
// classified itself from the client layer to the gateway's, which is
// where this hop's caller sits; a peer's own classification is kept.
func atGateway(addr string, err error) error {
	ce, ok := err.(*cberr.Error)
	if !ok || ce.Layer != cberr.LayerClient {
		return fmt.Errorf("wire: peer %s: %w", addr, err)
	}
	g := *ce
	g.Layer, g.Message = cberr.LayerGateway, "wire: peer "+addr+": "+ce.Message
	return &g
}
