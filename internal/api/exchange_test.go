package api_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/x509"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/tee"
)

// recorder is a TCP proxy that keeps every byte each side sent.
type recorder struct {
	ln       net.Listener
	upstream string
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    [][2]*bytes.Buffer // per connection: client→server, server→client
}

func newRecorder(t *testing.T, upstream string) *recorder {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{ln: ln, upstream: upstream}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go r.relay(c)
		}
	}()
	return r
}

func (r *recorder) relay(c net.Conn) {
	defer r.wg.Done()
	defer c.Close()
	up, err := net.Dial("tcp", r.upstream)
	if err != nil {
		return
	}
	defer up.Close()
	bufs := [2]*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	r.mu.Lock()
	r.conns = append(r.conns, bufs)
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(c, io.TeeReader(up, bufs[1]))
		close(done)
	}()
	_, _ = io.Copy(up, io.TeeReader(c, bufs[0]))
	_ = up.(*net.TCPConn).CloseWrite()
	<-done
}

// close waits for every relayed connection to end: the caller has
// closed its side of each.
func (r *recorder) close() {
	_ = r.ln.Close()
	r.wg.Wait()
}

// exchange is one recorded request with its response.
type exchange struct {
	method, path string
	reqBody      []byte
	status       int
	respBody     []byte
}

func (r *recorder) exchanges(t *testing.T) []exchange {
	var out []exchange
	for _, bufs := range r.conns {
		reqs, resps := bufio.NewReader(bufs[0]), bufio.NewReader(bufs[1])
		for {
			req, err := http.ReadRequest(reqs)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			reqBody, err := io.ReadAll(req.Body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(resps, req)
			if err != nil {
				t.Fatal(err)
			}
			respBody, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, exchange{req.Method, req.URL.Path, reqBody, resp.StatusCode, respBody})
		}
	}
	return out
}

// TestEdgeExchangesTakeTheTypedPath records what a tenant's client and
// a sharded front tier put on the wire for the exchanges tier-mixed
// makes (sync invokes, async submits, result long-polls, and a refused
// invoke) and feeds every body back through the typed decoders: none
// may need encoding/json.
func TestEdgeExchangesTakeTheTypedPath(t *testing.T) {
	cluster, err := confbench.New(confbench.WithShards(2), confbench.WithGuestMemoryMB(8),
		confbench.WithTransport("binary"), confbench.WithTEEs(tee.KindSEV, tee.KindTDX))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if err := cluster.Client().Upload(ctx, faas.Function{Name: "probe", Language: "lua", Workload: "factors"}); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(t, strings.TrimPrefix(cluster.GatewayURL(), "http://"))
	client, err := confbench.NewClient("http://"+rec.ln.Addr().String(), confbench.WithClientTenant("t1"), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []api.InvokeRequest{
		{Function: "probe", Secure: true, TEE: tee.KindSEV, Scale: 5040},
		{Function: "probe", TEE: tee.KindTDX},
		{Function: "probe", Secure: true, TEE: tee.KindTDX, Trace: true},
	} {
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatal(err)
		}
		sub, err := client.InvokeAsync(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.AwaitResult(ctx, sub.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Invoke(ctx, api.InvokeRequest{Function: "ghost", TEE: tee.KindSEV}); err == nil {
		t.Fatal("invoking an unknown function succeeded")
	}
	sub, err := client.InvokeAsync(ctx, api.InvokeRequest{Function: "ghost", TEE: tee.KindSEV})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AwaitResult(ctx, sub.ID, 0); err == nil {
		t.Fatal("awaiting an unknown function's invoke succeeded")
	}
	api.CloseIdleConnections()
	rec.close()

	seen := map[string]int{}
	for _, ex := range rec.exchanges(t) {
		var kind string
		var req, resp any
		switch {
		case ex.method == http.MethodPost && ex.path == api.PathV1Invoke:
			kind, req, resp = "invoke", new(api.InvokeRequest), new(api.InvokeResponse)
		case ex.method == http.MethodPost && ex.path == api.PathV1InvokeAsync:
			kind, req, resp = "submit", new(api.InvokeRequest), new(api.AsyncSubmitResponse)
		case ex.method == http.MethodGet && strings.HasPrefix(ex.path, api.PathV1Invoke+"/"):
			kind, resp = "result", new(api.AsyncResult)
		default:
			t.Fatalf("unexpected exchange %s %s", ex.method, ex.path)
		}
		if ex.status >= 300 {
			kind, resp = "error", new(api.ErrorResponse)
		}
		seen[kind]++
		if req != nil && !api.ParseEdge(ex.reqBody, req, true) {
			t.Errorf("%s %s: request body %s fell back to encoding/json", ex.method, ex.path, ex.reqBody)
		}
		if ex.status != http.StatusNoContent && !api.ParseEdge(ex.respBody, resp, false) {
			t.Errorf("%s %s: %d response %s fell back to encoding/json", ex.method, ex.path, ex.status, ex.respBody)
		}
	}
	for _, kind := range []string{"invoke", "submit", "result", "error"} {
		if seen[kind] == 0 {
			t.Errorf("no %s exchange recorded: %v", kind, seen)
		}
	}
}

// TestClientSpeaksHTTP1OverTLS: an https base URL reaches a TLS server
// through crypto/tls, verified against the roots set for the test, and
// speaks HTTP/1.1 on a connection the next call reuses.
func TestClientSpeaksHTTP1OverTLS(t *testing.T) {
	var conns, h1 atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.TLS != nil && r.ProtoMajor == 1 && r.ProtoMinor == 1 {
			h1.Add(1)
		}
		api.WriteJSON(w, http.StatusOK, api.InvokeResponse{Output: "sealed"})
	}))
	srv.EnableHTTP2 = true
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.StartTLS()
	defer srv.Close()
	roots := x509.NewCertPool()
	roots.AddCert(srv.Certificate())
	api.SetTLSRoots(t, roots)
	client, err := api.New(srv.URL, api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := client.Invoke(context.Background(), api.InvokeRequest{Function: "f"})
		if err != nil || got.Output != "sealed" {
			t.Fatalf("Invoke over TLS = %+v, %v", got, err)
		}
	}
	if h1.Load() != 2 || conns.Load() != 1 {
		t.Errorf("%d of 2 requests came as HTTP/1.1 over TLS, on %d connections (want 1)", h1.Load(), conns.Load())
	}
	// Without the roots the server's certificate is not trusted (on a
	// new connection: the roots are the process's, not a client's).
	api.CloseIdleConnections()
	api.SetTLSRoots(t, x509.NewCertPool())
	untrusting, err := api.New(srv.URL, api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := untrusting.Health(context.Background()); err == nil {
		t.Error("a server the roots do not vouch for was trusted")
	}
}
