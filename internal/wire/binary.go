package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/obs"
)

// Binary is the persistent-connection transport: one multiplexed TCP
// connection per peer address, length-prefixed binary frames, and
// out-of-order completion by correlation ID. A connection that dies
// mid-flight fails its pending calls with a retryable unavailable
// error and is replaced on the next call — redial policy stays with
// the existing retry machinery (gateway alternate-endpoint dispatch,
// client retry loop) rather than being duplicated here.
type Binary struct {
	m *wireMetrics

	mu     sync.Mutex
	conns  map[string]*mconn
	closed bool
}

// NewBinary builds the binary transport. reg may be nil to run
// without wire metrics.
func NewBinary(reg *obs.Registry) *Binary {
	return &Binary{m: newWireMetrics(reg), conns: make(map[string]*mconn)}
}

// Name implements Transport.
func (t *Binary) Name() string { return TransportBinary }

// Close severs every connection; pending calls fail unavailable.
func (t *Binary) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = map[string]*mconn{}
	t.mu.Unlock()
	for _, mc := range conns {
		mc.kill(errors.New("wire: transport closed"))
	}
	return nil
}

// RoundTrip implements Transport.
func (t *Binary) RoundTrip(ctx context.Context, addr, path string, in, out any) error {
	ft, payload, err := encodeRequest(path, in)
	if err != nil {
		return err
	}
	mc, err := t.conn(addr)
	if err != nil {
		PutBuf(payload)
		return err
	}
	rt, rp, err := mc.roundTrip(ctx, ft, payload)
	if err != nil {
		return err
	}
	defer PutBuf(rp)
	return decodeWireResponse(addr, rt, rp, out)
}

// conn returns the live connection to addr, dialing or replacing a
// dead one under the transport lock (peers are local, dials are
// cheap; a slow peer only stalls calls to other peers during its own
// dial, which the pipeline never does mid-benchmark).
func (t *Binary) conn(addr string) (*mconn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, cberr.New(cberr.CodeUnavailable, cberr.LayerGateway, "wire: transport closed")
	}
	if mc, ok := t.conns[addr]; ok {
		select {
		case <-mc.dead:
			// fall through and redial
		default:
			return mc, nil
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerGateway,
			fmt.Errorf("wire: dial %s: %w", addr, err))
	}
	mc := newMconn(addr, c, t.m)
	t.conns[addr] = mc
	return mc, nil
}

// inFrame is a received frame handed from a read loop to the goroutine
// that consumes it: a matched response to its waiter (client side), a
// request to a handler worker (server side).
type inFrame struct {
	t       Type
	corr    uint64
	payload []byte
}

// waiterPool recycles the one-slot channels responses arrive on. A
// channel goes back only after its response was received: on the
// cancel and dead paths the read loop may still send to it.
var waiterPool = sync.Pool{New: func() any { return make(chan inFrame, 1) }}

// mconn is one multiplexed connection: callers writing their own
// request frames through the shared frameWriter, a read loop matching
// responses to waiters by correlation ID, and a pending table. kill
// runs exactly once, closes dead, and every waiter observes it.
type mconn struct {
	addr string
	conn net.Conn
	w    *frameWriter
	dead chan struct{}
	m    *wireMetrics

	mu      sync.Mutex
	deadErr error
	seq     uint64
	pending map[uint64]chan inFrame
}

func newMconn(addr string, conn net.Conn, m *wireMetrics) *mconn {
	mc := &mconn{
		addr:    addr,
		conn:    conn,
		w:       newFrameWriter(conn, m),
		dead:    make(chan struct{}),
		m:       m,
		pending: make(map[uint64]chan inFrame),
	}
	go mc.readLoop()
	return mc
}

func (mc *mconn) readLoop() {
	br := bufio.NewReaderSize(mc.conn, 32<<10)
	hdr := make([]byte, HeaderSize)
	for {
		h, payload, err := readFrame(br, hdr)
		if err != nil {
			mc.kill(fmt.Errorf("wire: %s: %w", mc.addr, err))
			return
		}
		mc.m.countIn(HeaderSize + len(payload))
		mc.mu.Lock()
		ch := mc.pending[h.Corr]
		delete(mc.pending, h.Corr)
		mc.mu.Unlock()
		if ch == nil {
			// Response for a caller that already gave up (canceled).
			PutBuf(payload)
			continue
		}
		ch <- inFrame{t: h.Type, payload: payload} // buffered; sole sender
	}
}

// kill marks the connection dead (first error wins), closes it, and
// releases every waiter via the dead channel.
func (mc *mconn) kill(err error) {
	mc.mu.Lock()
	if mc.deadErr != nil {
		mc.mu.Unlock()
		return
	}
	mc.deadErr = err
	mc.pending = make(map[uint64]chan inFrame)
	mc.mu.Unlock()
	close(mc.dead)
	mc.conn.Close()
}

func (mc *mconn) connErr() error {
	mc.mu.Lock()
	err := mc.deadErr
	mc.mu.Unlock()
	if err == nil {
		err = errors.New("wire: connection closed")
	}
	return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerGateway, err)
}

func (mc *mconn) forget(corr uint64) {
	mc.mu.Lock()
	delete(mc.pending, corr)
	mc.mu.Unlock()
}

// roundTrip writes one request frame and waits for its correlated
// response. payload is pooled and ownership passes to the writer; the
// returned payload is pooled and owned by the caller.
func (mc *mconn) roundTrip(ctx context.Context, ft Type, payload []byte) (Type, []byte, error) {
	mc.mu.Lock()
	if mc.deadErr != nil {
		mc.mu.Unlock()
		PutBuf(payload)
		return 0, nil, mc.connErr()
	}
	mc.seq++
	corr := mc.seq
	respCh := waiterPool.Get().(chan inFrame)
	mc.pending[corr] = respCh
	mc.mu.Unlock()

	if err := mc.w.send(ctx, ft, corr, payload); err != nil {
		mc.forget(corr)
		if ctx.Err() != nil {
			return 0, nil, cberr.From(fmt.Errorf("wire: %s: %w", mc.addr, ctx.Err()), cberr.LayerGateway)
		}
		mc.kill(fmt.Errorf("wire: %s: %w", mc.addr, err))
		return 0, nil, mc.connErr()
	}

	select {
	case in := <-respCh:
		waiterPool.Put(respCh)
		return in.t, in.payload, nil
	case <-mc.dead:
		mc.forget(corr)
		return 0, nil, mc.connErr()
	case <-ctx.Done():
		mc.forget(corr)
		return 0, nil, cberr.From(fmt.Errorf("wire: %s: %w", mc.addr, ctx.Err()), cberr.LayerGateway)
	}
}

// encodeRequest maps a (path, request) pair onto the frame the route
// table names for it. The query suffix (e.g. the obs scrape's
// ?format=json) is irrelevant to binary framing and stripped; like
// the httpjson carrier, a nil request is a GET.
func encodeRequest(path string, in any) (Type, []byte, error) {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	method := http.MethodPost
	if in == nil {
		method = http.MethodGet
	}
	rt, _ := api.RouteFor(method, path)
	buf := GetBuf(0)
	switch req := in.(type) {
	case nil:
		if rt.Req == api.FrameHealthReq || rt.Req == api.FrameObsReq {
			return rt.Req, buf, nil
		}
	case *api.GuestInvokeRequest:
		if rt.Req == api.FrameInvokeReq {
			return rt.Req, AppendGuestInvoke(buf, req), nil
		}
	case *api.TenantedInvoke:
		if rt.Req == api.FrameFrontInvokeReq {
			return rt.Req, AppendFrontInvoke(buf, req), nil
		}
	case *api.InvokeRequest:
		if rt.Req == api.FrameFrontInvokeReq {
			return rt.Req, AppendFrontInvoke(buf, &api.TenantedInvoke{Req: *req}), nil
		}
	case *api.AttestRequest:
		if rt.Req == api.FrameAttestReq {
			return rt.Req, AppendAttest(buf, "", req), nil
		}
	case *api.TenantedAttest:
		if rt.Req == api.FrameAttestReq {
			return rt.Req, AppendAttest(buf, req.Tenant, &req.Req), nil
		}
	}
	PutBuf(buf)
	// reflect.TypeOf names the type without keeping in (%T would let it
	// escape, and with it every caller's request).
	return 0, nil, cberr.Newf(cberr.CodeInvalid, cberr.LayerGateway,
		"wire: no binary mapping for %v at %s", reflect.TypeOf(in), path)
}

// decodeWireResponse decodes a response frame into out. api.FrameError frames
// reconstruct the peer's classified error regardless of out.
func decodeWireResponse(addr string, t Type, payload []byte, out any) error {
	if t == api.FrameError {
		werr, derr := DecodeError(payload)
		if derr != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, derr))
		}
		return errString(addr, werr)
	}
	switch o := out.(type) {
	case nil:
		return nil
	case *api.InvokeResponse:
		if t != api.FrameInvokeResp {
			return typeMismatch(addr, t, api.FrameInvokeResp)
		}
		resp, err := DecodeInvokeResponse(payload)
		if err != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, err))
		}
		*o = resp
		return nil
	case *api.AttestResponse:
		if t != api.FrameAttestResp {
			return typeMismatch(addr, t, api.FrameAttestResp)
		}
		resp, err := DecodeAttestResp(payload)
		if err != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, err))
		}
		*o = resp
		return nil
	case *obs.Snapshot:
		// Obs snapshots ride as JSON payloads, exactly what the HTTP
		// surface serves. Decoding into a local keeps out from escaping
		// through json.Unmarshal.
		if t != api.FrameObsResp {
			return typeMismatch(addr, t, api.FrameObsResp)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, err))
		}
		*o = snap
		return nil
	default:
		return cberr.Newf(cberr.CodeInvalid, cberr.LayerGateway,
			"wire: no binary decoding of %s into %v", t, reflect.TypeOf(out))
	}
}

func typeMismatch(addr string, got, want Type) error {
	return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
		fmt.Errorf("wire: peer %s: frame type %s, want %s", addr, got, want))
}
