package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
)

func TestValidTransportAndNewTransport(t *testing.T) {
	for _, name := range []string{"", TransportHTTPJSON, TransportBinary} {
		if !ValidTransport(name) {
			t.Fatalf("%q should be valid", name)
		}
		tr, err := NewTransport(name, nil)
		if err != nil {
			t.Fatalf("NewTransport(%q): %v", name, err)
		}
		defer tr.Close()
		want := name
		if want == "" {
			want = TransportHTTPJSON
		}
		if tr.Name() != want {
			t.Fatalf("NewTransport(%q).Name() = %q", name, tr.Name())
		}
	}
	if ValidTransport("carrier-pigeon") {
		t.Fatal("bogus transport accepted")
	}
	if _, err := NewTransport("carrier-pigeon", nil); err == nil {
		t.Fatal("bogus transport built")
	}
}

// TestHTTPJSONRoundTrip pins the legacy carrier: tenant-wrapped
// requests unwrap into the header, bodies are JSON, and peer error
// envelopes recover their cberr classification.
func TestHTTPJSONRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == api.PathV1Invoke && r.Method == http.MethodPost:
			if got := r.Header.Get(api.HeaderTenant); got != "acme" {
				t.Errorf("tenant header = %q", got)
			}
			var req api.InvokeRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("body decode: %v", err)
			}
			if req.Function == "reject-me" {
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(api.ErrorEnvelope(
					cberr.New(cberr.CodeUnavailable, cberr.LayerFront, "shard draining")))
				return
			}
			json.NewEncoder(w).Encode(api.InvokeResponse{Output: req.Function + " done"})
		case r.URL.Path == api.PathV1Health && r.Method == http.MethodGet:
			w.WriteHeader(http.StatusOK)
		default:
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	tr := NewHTTPJSON()
	defer tr.Close()
	ctx := context.Background()

	var resp api.InvokeResponse
	in := &api.TenantedInvoke{Tenant: "acme", Req: api.InvokeRequest{Function: "fib-go", Scale: 5}}
	if err := tr.RoundTrip(ctx, addr, api.PathV1Invoke, in, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Output != "fib-go done" {
		t.Fatalf("output = %q", resp.Output)
	}
	if err := tr.RoundTrip(ctx, addr, api.PathV1Health, nil, nil); err != nil {
		t.Fatalf("health: %v", err)
	}

	err := tr.RoundTrip(ctx, addr, api.PathV1Invoke,
		&api.TenantedInvoke{Tenant: "acme", Req: api.InvokeRequest{Function: "reject-me"}}, &resp)
	if err == nil {
		t.Fatal("peer error swallowed")
	}
	var ce *cberr.Error
	if !errors.As(err, &ce) || ce.Code != cberr.CodeUnavailable {
		t.Fatalf("classification lost across the hop: %v", err)
	}
	if !cberr.Retryable(err) {
		t.Fatalf("retryability lost: %v", err)
	}
}

// echoHandler answers health and guest-invoke frames; a function named
// "explode" returns a classified error, exercising the api.FrameError path.
func echoHandler(ctx context.Context, ft Type, payload []byte) (Type, []byte, error) {
	switch ft {
	case api.FrameHealthReq:
		return api.FrameHealthResp, AppendHealthResp(GetBuf(0), "ok"), nil
	case api.FrameInvokeReq:
		req, err := DecodeGuestInvoke(payload)
		if err != nil {
			return 0, nil, err
		}
		if req.Function.Name == "explode" {
			return 0, nil, cberr.New(cberr.CodeUpstream, cberr.LayerHost, "guest exploded")
		}
		resp := api.InvokeResponse{Output: req.Function.Name + " ran", Host: "test-host"}
		b, err := AppendInvokeResponse(GetBuf(0), &resp)
		if err != nil {
			return 0, nil, err
		}
		return api.FrameInvokeResp, b, nil
	default:
		return 0, nil, fmt.Errorf("%w: unhandled %s", ErrSever, ft)
	}
}

// startSniffer boots a sniffing listener with echoHandler plus an HTTP
// mux on the same port, returning its address.
func startSniffer(t *testing.T, cfg ServerConfig) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Handler == nil {
		cfg.Handler = echoHandler
	}
	sniffer := NewSniffer(ln, cfg)
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathV1Health, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "http ok")
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(sniffer)
	t.Cleanup(func() {
		srv.Close()
		sniffer.Close()
	})
	return ln.Addr().String()
}

// TestSnifferDualProtocol serves binary frames and HTTP from one
// listener: the two-byte magic peek routes each connection.
func TestSnifferDualProtocol(t *testing.T) {
	addr := startSniffer(t, ServerConfig{})

	// HTTP side: a plain GET is replayed to the mux untouched.
	resp, err := http.Get("http://" + addr + api.PathV1Health)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "http ok" {
		t.Fatalf("http side answered %q", body)
	}

	// Binary side: same port, wire magic, served by the handler.
	tr := NewBinary(nil)
	defer tr.Close()
	if err := tr.RoundTrip(context.Background(), addr, api.PathV1Health, nil, nil); err != nil {
		t.Fatalf("binary side: %v", err)
	}
}

// TestBinaryTransportRoundTrip drives invoke frames — success and
// classified failure — through a real sniffer.
func TestBinaryTransportRoundTrip(t *testing.T) {
	reg := obs.New()
	addr := startSniffer(t, ServerConfig{Obs: reg})
	tr := NewBinary(reg)
	defer tr.Close()
	ctx := context.Background()

	var resp api.InvokeResponse
	req := &api.GuestInvokeRequest{Function: faas.Function{Name: "fib-go", Workload: "fib"}, Scale: 3}
	if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Output != "fib-go ran" || resp.Host != "test-host" {
		t.Fatalf("response = %+v", resp)
	}

	err := tr.RoundTrip(ctx, addr,
		api.GuestV1Invoke, &api.GuestInvokeRequest{Function: faas.Function{Name: "explode"}}, &resp)
	var ce *cberr.Error
	if !errors.As(err, &ce) || ce.Code != cberr.CodeUpstream {
		t.Fatalf("peer error lost classification: %v", err)
	}
	if !strings.Contains(err.Error(), "guest exploded") {
		t.Fatalf("peer message lost: %v", err)
	}

	// Unmapped paths fail fast client-side, before touching the network.
	if err := tr.RoundTrip(ctx, addr, "/no/such/frame", nil, nil); err == nil {
		t.Fatal("unmapped path accepted")
	}
}

// TestBinaryConcurrentMuxUnderFrameFaults is the -race acceptance
// test: many goroutines multiplex invokes over shared connections
// while the server's faultplane severs connections mid-stream at the
// wire.frame point. Every call must either succeed or fail retryable —
// no hangs, no lost waiters, no unclassified errors — and the
// transport must redial: after the storm a fresh call succeeds.
func TestBinaryConcurrentMuxUnderFrameFaults(t *testing.T) {
	plane := faultplane.New(42)
	if err := plane.Register(faultplane.Spec{
		Point: faultplane.PointWireFrame, Kind: faultplane.KindDrop, Probability: 0.2,
	}); err != nil {
		t.Fatal(err)
	}
	addr := startSniffer(t, ServerConfig{
		Faults: plane,
		Target: faultplane.Target{Host: "mux-test"},
	})
	tr := NewBinary(nil)
	defer tr.Close()

	const workers, callsPerWorker = 8, 25
	var wg sync.WaitGroup
	var ok, retryable atomicCounter
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				var resp api.InvokeResponse
				req := &api.GuestInvokeRequest{
					Function: faas.Function{Name: fmt.Sprintf("fn-%d-%d", w, i)},
				}
				err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, req, &resp)
				cancel()
				switch {
				case err == nil:
					if want := req.Function.Name + " ran"; resp.Output != want {
						t.Errorf("worker %d call %d: cross-talk: %q != %q", w, i, resp.Output, want)
					}
					ok.add()
				case cberr.Retryable(err):
					retryable.add()
				default:
					t.Errorf("worker %d call %d: non-retryable: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()

	if ok.get() == 0 {
		t.Fatal("no call survived — fault too aggressive or mux broken")
	}
	if retryable.get() == 0 {
		t.Fatal("no fault observed — injection never fired")
	}
	if got := plane.Injected(); got == 0 {
		t.Fatal("plane recorded no injections")
	}
	t.Logf("ok=%d retryable=%d injected=%d", ok.get(), retryable.get(), plane.Injected())

	// Severed connections must be replaced on the next dial. Retry a
	// few times: each attempt can itself be unlucky.
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		var resp api.InvokeResponse
		err = tr.RoundTrip(context.Background(), addr, api.GuestV1Invoke,
			&api.GuestInvokeRequest{Function: faas.Function{Name: "after-storm"}}, &resp)
		if err == nil {
			return
		}
		if !cberr.Retryable(err) {
			t.Fatalf("post-storm non-retryable: %v", err)
		}
	}
	t.Fatalf("transport never recovered: %v", err)
}

type atomicCounter struct {
	mu sync.Mutex
	n  int
}

func (c *atomicCounter) add() { c.mu.Lock(); c.n++; c.mu.Unlock() }
func (c *atomicCounter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
