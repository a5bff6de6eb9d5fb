// Package door is ConfBench's one front-door server. The gateway, the
// front tier and the guest agent each hand it a list of handlers bound
// to entries of the api route table; it builds everything between the
// listener and those handlers — the protocol sniffer, the HTTP mux,
// the JSON and binary-frame decode → call → encode shells, the method
// check, the cberr error envelope, and the per-route request metrics —
// so a request is treated identically whichever door and whichever
// carrier it came through.
package door

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/wire"
)

// Handler is one route bound to the code serving it. Build them with
// Post, Get, Raw or Obs; a federating door gets the rest of the ops
// surface from its Plane.
type Handler struct {
	route api.Route
	// http writes the success response itself and returns any failure
	// for the shell to envelope; frame (nil = HTTP-only route) builds
	// the response payload into a pooled buffer. layer labels errors
	// raised on the door's behalf (a bad body, a bad query).
	http  func(w http.ResponseWriter, r *http.Request, layer cberr.Layer) error
	frame func(ctx context.Context, payload []byte, layer cberr.Layer) ([]byte, error)

	// Request metrics, resolved once by Listen when the door
	// instruments the route: the registry lookup sorts labels and
	// allocates, so requests only touch these handles. Error statuses
	// are rare and fall back to the lookup.
	latency *obs.Histogram
	ok      *obs.Counter
}

// route resolves a table entry, with its success status filled in;
// binding a handler to a route the table does not list is a bug in the
// door, caught when it is built.
func route(method, path string) api.Route {
	rt, ok := api.RouteFor(method, path)
	if !ok {
		panic(fmt.Sprintf("door: %s %s is not in the api route table", method, path))
	}
	if rt.Status == 0 {
		rt.Status = http.StatusOK
	}
	return rt
}

// Post binds a POST route to fn, which receives the caller's tenant
// and the decoded request whether it arrived as a JSON body or as a
// binary frame.
func Post[Req, Resp any](path string, fn func(ctx context.Context, tenant string, req Req) (Resp, error)) Handler {
	return handle(route(http.MethodPost, path), fn)
}

// Get binds a GET route (no request body, empty request frame) to fn.
func Get[Resp any](path string, fn func(ctx context.Context) (Resp, error)) Handler {
	return handle(route(http.MethodGet, path),
		func(ctx context.Context, _ string, _ struct{}) (Resp, error) { return fn(ctx) })
}

// Raw binds an HTTP-only route to a handler that reads the request
// (query, path values) and writes the success response itself; a
// returned error still goes out through the shell's envelope.
func Raw(method, path string, fn func(w http.ResponseWriter, r *http.Request, layer cberr.Layer) error) Handler {
	return Handler{route: route(method, path), http: fn}
}

func handle[Req, Resp any](rt api.Route, fn func(context.Context, string, Req) (Resp, error)) Handler {
	h := Handler{route: rt}
	h.http = func(w http.ResponseWriter, r *http.Request, layer cberr.Layer) error {
		var req Req
		if rt.Method == http.MethodPost {
			// The binary carrier refuses payloads over wire.MaxPayload;
			// the HTTP one must not accept what its twin would not. A
			// declared length within the limit needs no wrapper:
			// net/http already stops the body there.
			body := r.Body
			if r.ContentLength < 0 || r.ContentLength > wire.MaxPayload {
				body = http.MaxBytesReader(w, r.Body, wire.MaxPayload)
			}
			if err := api.ReadJSON(body, r.ContentLength, &req); err != nil {
				return cberr.Wrap(cberr.CodeInvalid, layer, fmt.Errorf("decode request: %w", err))
			}
		}
		resp, err := fn(r.Context(), orDefault(r.Header.Get(api.HeaderTenant)), req)
		if err != nil {
			return err
		}
		api.WriteJSON(w, rt.Status, resp)
		return nil
	}
	if rt.Req == 0 {
		return h
	}
	decode, encode := wire.DecoderFor[Req](rt.Req), wire.EncoderFor[Resp](rt.Resp)
	if decode == nil || encode == nil {
		panic(fmt.Sprintf("door: %s %s: handler types do not match frames %s/%s",
			rt.Method, rt.Path, rt.Req, rt.Resp))
	}
	h.frame = func(ctx context.Context, payload []byte, layer cberr.Layer) ([]byte, error) {
		tenant, req, err := decode(payload)
		if err != nil {
			return nil, cberr.Wrap(cberr.CodeInvalid, layer, fmt.Errorf("decode request: %w", err))
		}
		resp, err := fn(ctx, orDefault(tenant), req)
		if err != nil {
			return nil, err
		}
		out, err := encode(wire.GetBuf(0), resp)
		if err != nil {
			return nil, cberr.Wrap(cberr.CodeInternal, layer, err)
		}
		return out, nil
	}
	return h
}

// orDefault maps an absent tenant (no header; binary frames carry it
// in the payload) onto the default one.
func orDefault(tenant string) string {
	if tenant == "" {
		return api.TenantDefault
	}
	return tenant
}

// Config assembles one front door.
type Config struct {
	Routes []Handler
	// Layer labels the shell's own errors (bad body, wrong method,
	// unknown path or frame) with the door that raised them.
	Layer cberr.Layer
	// Obs receives the wire frame/byte/batch metrics (nil disables).
	Obs *obs.Registry
	// Instrument additionally feeds confbench_http_requests_total and
	// confbench_http_request_seconds in Obs for the routes the table
	// marks Instrumented, identically for both carriers.
	Instrument bool
	// OnError is called once per error answer, whatever the carrier
	// and whether the shell or the handler refused.
	OnError func()
	// Faults and Target drive the wire.frame fault point.
	Faults *faultplane.Plane
	Target faultplane.Target
}

// Server is a running front door.
type Server struct {
	cfg    Config
	frames [api.FrameError + 1]*Handler // by request frame type
	srv    *http.Server
	addr   string
}

// Listen serves cfg's routes on addr ("127.0.0.1:0" for ephemeral),
// accepting both carriers on the one port: the sniffer peeks each
// connection's first bytes and routes wire frames to the frame shell,
// everything else to the HTTP mux.
func Listen(addr string, cfg Config) (*Server, error) {
	s := &Server{cfg: cfg}
	s.cfg.Routes = append([]Handler(nil), cfg.Routes...) // mux fills in metric handles
	mux := s.mux()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s.addr = ln.Addr().String()
	// Shutting the HTTP server down closes the sniffer, which closes
	// the raw listener and severs live wire connections.
	sniffer := wire.NewSniffer(ln, wire.ServerConfig{
		Handler: s.serveFrame, Faults: cfg.Faults, Target: cfg.Target, Obs: cfg.Obs,
	})
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		_ = s.srv.Serve(sniffer) // ErrServerClosed on shutdown
	}()
	return s, nil
}

// mux is the only place a ConfBench API route is registered: one mux
// pattern per table path, dispatching on method itself so a wrong
// method gets the enveloped, counted 405 instead of the mux's
// plain-text one, plus a catch-all answering unknown paths likewise.
func (s *Server) mux() *http.ServeMux {
	byPath := make(map[string][]*Handler)
	for i := range s.cfg.Routes {
		h := &s.cfg.Routes[i]
		if s.cfg.Instrument && h.route.Instrumented {
			h.latency = s.cfg.Obs.Histogram("confbench_http_request_seconds", "route", h.route.Path)
			h.ok = s.cfg.Obs.Counter("confbench_http_requests_total",
				"route", h.route.Path, "status", strconv.Itoa(h.route.Status))
		}
		byPath[h.route.Path] = append(byPath[h.route.Path], h)
		if h.frame != nil {
			s.frames[h.route.Req] = h
		}
	}
	mux := http.NewServeMux()
	for path, hs := range byPath {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			for _, h := range hs {
				if h.route.Method == r.Method {
					s.answer(h, w, start, 0, h.http(w, r, s.cfg.Layer))
					return
				}
			}
			// The taxonomy alone would say 400 for an invalid request.
			s.answer(hs[0], w, start, http.StatusMethodNotAllowed,
				cberr.Newf(cberr.CodeInvalid, s.cfg.Layer, "%s not allowed on %s", r.Method, path))
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.answer(&Handler{}, w, time.Now(), 0, cberr.Newf(cberr.CodeNotFound, s.cfg.Layer,
			"no route %s %s (the API lives under /v1 and /guest/v1)", r.Method, r.URL.Path))
	})
	return mux
}

// answer finishes one HTTP exchange: a failure is counted and goes
// out as the error envelope (the handler already wrote any success)
// under status, or the one its taxonomy code implies when status is 0,
// and the route's request metrics see the status served.
func (s *Server) answer(h *Handler, w http.ResponseWriter, start time.Time, status int, err error) {
	if err == nil {
		status = h.route.Status
	} else {
		s.cfg.OnError()
		if errors.Is(err, wire.ErrSever) {
			// A crash/drop fault: the peer sees an aborted connection,
			// exactly what the frame shell's severed one looks like.
			panic(http.ErrAbortHandler)
		}
		if status == 0 {
			status = cberr.HTTPStatus(err)
		}
		api.WriteError(w, status, err)
	}
	s.observe(h, start, status)
}

// serveFrame is the binary carrier's twin of the mux: it finds the
// route by request frame type and runs the same handler, counting the
// status the HTTP surface would have served.
func (s *Server) serveFrame(ctx context.Context, t wire.Type, payload []byte) (wire.Type, []byte, error) {
	var h *Handler
	if int(t) < len(s.frames) {
		h = s.frames[t]
	}
	if h == nil {
		s.cfg.OnError()
		return 0, nil, cberr.Newf(cberr.CodeInvalid, s.cfg.Layer, "unexpected frame type %s", t)
	}
	start := time.Now()
	out, err := h.frame(ctx, payload, s.cfg.Layer)
	if err != nil {
		s.cfg.OnError()
		s.observe(h, start, cberr.HTTPStatus(err))
		return 0, nil, err
	}
	s.observe(h, start, h.route.Status)
	return h.route.Resp, out, nil
}

func (s *Server) observe(h *Handler, start time.Time, status int) {
	if h.latency == nil {
		return
	}
	h.latency.Observe(time.Since(start))
	if status == h.route.Status {
		h.ok.Inc()
		return
	}
	s.cfg.Obs.Counter("confbench_http_requests_total",
		"route", h.route.Path, "status", strconv.Itoa(status)).Inc()
}

// Addr is the listen address (host:port).
func (s *Server) Addr() string { return s.addr }

// Close stops accepting, severs wire connections, and waits (bounded)
// for in-flight HTTP requests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
