package door_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/faas"
	"confbench/internal/faultplane"
	"confbench/internal/fronttier"
	"confbench/internal/gateway"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/wire"
)

// The conformance table: every door (gateway, front tier over two
// shards, guest agent) is driven with the same generated requests
// through both carriers, and each request must come out the same —
// response, cberr classification, the door's request counters and its
// api.Metrics accounting — because both carriers leave one shell.

// frontDoor is one door under test.
type frontDoor struct {
	name  string
	which api.Door
	addr  string
	layer cberr.Layer
	reg   *obs.Registry
	// counts reads the door's own accounting: api.Metrics'
	// invocations/errors/attestations, or the guest's
	// confbench_hostagent_* requests/errors.
	counts func(t *testing.T) [3]uint64
	probes []probe
}

// probe is one generated request. in is shared by both carriers (nil
// = GET); out builds a fresh response holder.
type probe struct {
	name string
	path string
	in   any
	out  func() any
}

// outcome is everything a probe may legitimately differ in.
type outcome struct {
	Resp       any
	Code       cberr.Code
	Layer      cberr.Layer
	Retryable  bool
	RetryAfter time.Duration
	HTTP       map[string]uint64 // confbench_http_requests_total deltas
	Counts     [3]uint64         // deltas of frontDoor.counts
}

// normalize keeps what must match and drops what may not: timings and
// perf counters move between two executions of the same request, and
// an obs snapshot taken over the binary carrier has seen wire frames
// the HTTP one has not.
func normalize(out any) any {
	switch v := out.(type) {
	case *api.InvokeResponse:
		return [5]any{v.Output, v.Secure, v.Platform, v.Host, v.VM}
	case *api.AttestResponse:
		return len(v.Evidence) > 0
	case *obs.Snapshot:
		return len(v.Counters) > 0
	}
	return nil
}

func httpCounts(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for id, v := range reg.Snapshot().Counters {
		// The probes never touch /v1/metrics; reading counts does.
		if strings.HasPrefix(id, "confbench_http_requests_total") && !strings.Contains(id, api.PathV1Metrics) {
			out[id] = v
		}
	}
	return out
}

// observe runs fn and reports what it moved on d.
func (d *frontDoor) observe(t *testing.T, fn func() (any, error)) outcome {
	t.Helper()
	httpBefore, countsBefore := httpCounts(d.reg), d.counts(t)
	resp, err := fn()
	var o outcome
	if err != nil {
		var ce *cberr.Error
		if !errors.As(err, &ce) {
			t.Fatalf("unclassified error: %v", err)
		}
		o.Code, o.Layer, o.Retryable, o.RetryAfter = ce.Code, ce.Layer, ce.Retryable, cberr.RetryAfterOf(err)
	} else {
		o.Resp = normalize(resp)
	}
	o.HTTP = map[string]uint64{}
	for id, v := range httpCounts(d.reg) {
		if delta := v - httpBefore[id]; delta != 0 {
			o.HTTP[id] = delta
		}
	}
	countsAfter := d.counts(t)
	for i := range o.Counts {
		o.Counts[i] = countsAfter[i] - countsBefore[i]
	}
	return o
}

func metricsOf(url string) func(*testing.T) [3]uint64 {
	return func(t *testing.T) [3]uint64 {
		t.Helper()
		c, err := api.New(url)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return [3]uint64{m.Invocations, m.Errors, m.Attestations}
	}
}

func guestCounts(reg *obs.Registry, vmName string) func(*testing.T) [3]uint64 {
	return func(*testing.T) [3]uint64 {
		c := reg.Snapshot().Counters
		return [3]uint64{
			c[obs.MetricID("confbench_hostagent_requests_total", "vm", vmName)],
			c[obs.MetricID("confbench_hostagent_errors_total", "vm", vmName)],
		}
	}
}

// frontProbes generates the front-door request grid: every function ×
// secure × TEE × tenant combination, plus attest per TEE, health and
// the obs scrape. shed adds a request from a tenant whose bucket is
// already empty.
func frontProbes(shedTenant string) []probe {
	invokeOut := func() any { return &api.InvokeResponse{} }
	var ps []probe
	for _, fn := range []string{"fib", "ghost"} {
		for _, secure := range []bool{false, true} {
			for _, kind := range []tee.Kind{"", tee.KindTDX, tee.KindCCA} {
				req := api.InvokeRequest{Function: fn, Secure: secure, TEE: kind, Scale: 10}
				name := fmt.Sprintf("invoke %s secure=%v tee=%q", fn, secure, kind)
				ps = append(ps,
					probe{name + " tenant unset", api.PathV1Invoke, &req, invokeOut},
					probe{name + " tenant set", api.PathV1Invoke, &api.TenantedInvoke{Tenant: "team-a", Req: req}, invokeOut})
			}
		}
	}
	for _, kind := range []tee.Kind{"", tee.KindTDX, tee.KindCCA} {
		ps = append(ps, probe{fmt.Sprintf("attest tee=%q", kind), api.PathV1Attest,
			&api.AttestRequest{TEE: kind, Nonce: []byte("conformance-nonce")},
			func() any { return &api.AttestResponse{} }})
	}
	ps = append(ps,
		probe{"health", api.PathV1Health, nil, func() any { return nil }},
		probe{"obs", api.PathV1Obs + "?format=json", nil, func() any { return &obs.Snapshot{} }})
	if shedTenant != "" {
		ps = append(ps, probe{"shed with Retry-After", api.PathV1Invoke,
			&api.TenantedInvoke{Tenant: shedTenant, Req: api.InvokeRequest{Function: "fib", Scale: 10}}, invokeOut})
	}
	return ps
}

func guestProbes() []probe {
	var ps []probe
	for _, lang := range []string{"go", "cobol"} {
		for _, workload := range []string{"fib", "no-such-workload"} {
			ps = append(ps, probe{fmt.Sprintf("invoke %s/%s", lang, workload), api.GuestV1Invoke,
				&api.GuestInvokeRequest{Function: faas.Function{Name: "f", Language: lang, Workload: workload}, Scale: 10},
				func() any { return &api.InvokeResponse{} }})
		}
	}
	return append(ps,
		probe{"attest", api.GuestV1Attest, &api.AttestRequest{TEE: tee.KindTDX, Nonce: []byte("conformance-nonce")},
			func() any { return &api.AttestResponse{} }},
		probe{"health", api.GuestV1Health, nil, func() any { return nil }},
		probe{"obs", api.GuestV1Obs + "?format=json", nil, func() any { return &obs.Snapshot{} }})
}

// bed boots the three doors over one TDX host.
func bed(t *testing.T) (doors []*frontDoor, doomed *frontDoor) {
	t.Helper()
	backend, err := tdx.NewBackend(tdx.Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	hostReg := obs.New()
	agent, err := hostagent.NewAgent(hostagent.AgentConfig{
		Name: "tdx-host", Backend: backend, Guest: tee.GuestConfig{MemoryMB: 8}, Obs: hostReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })

	newGateway := func(reg *obs.Registry) (*gateway.Gateway, string) {
		g := gateway.New(gateway.Config{PlaneConfig: door.PlaneConfig{Obs: reg}})
		g.SetPostmortemWriter(io.Discard)
		g.AddHost(agent.Name(), agent.Endpoints())
		url, err := g.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = g.Close() })
		return g, url
	}
	upload := func(url string) {
		c, err := api.New(url)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Upload(context.Background(), faas.Function{Name: "fib", Language: "go", Workload: "fib"}); err != nil {
			t.Fatal(err)
		}
	}

	gwReg := obs.New()
	_, gwURL := newGateway(gwReg)
	upload(gwURL)
	doors = append(doors, &frontDoor{
		name: "gateway", which: api.DoorGateway, addr: strings.TrimPrefix(gwURL, "http://"),
		layer: cberr.LayerGateway, reg: gwReg, counts: metricsOf(gwURL), probes: frontProbes(""),
	})

	// A frozen clock keeps the shed tenant's bucket empty for the whole
	// table once drained, so every carrier reads the same retry advice.
	frozen := time.Unix(1_700_000_000, 0)
	var shards []fronttier.ShardConfig
	for _, name := range []string{"shard-0", "shard-1"} {
		_, url := newGateway(obs.New())
		shards = append(shards, fronttier.ShardConfig{Name: name, URL: url})
	}
	tierReg := obs.New()
	tier, err := fronttier.New(fronttier.Config{
		PlaneConfig: door.PlaneConfig{Obs: tierReg},
		Shards:      shards, Now: func() time.Time { return frozen },
		Quotas: map[string]fronttier.TenantLimits{"tight": {RatePerSec: 0.5, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tierURL, err := tier.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tier.Close() })
	upload(tierURL)
	if _, err := tier.Invoke(context.Background(), "tight", api.InvokeRequest{Function: "fib", Scale: 10}); err != nil {
		t.Fatalf("draining the shed tenant's bucket: %v", err)
	}
	doors = append(doors, &frontDoor{
		name: "tier", which: api.DoorTier, addr: strings.TrimPrefix(tierURL, "http://"),
		layer: cberr.LayerFront, reg: tierReg, counts: metricsOf(tierURL), probes: frontProbes("tight"),
	})

	newGuest := func(cfg hostagent.GuestServerConfig) *frontDoor {
		cfg.Obs = obs.New()
		gs, err := hostagent.NewGuestServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gs.Close() })
		return &frontDoor{
			name: "guest", which: api.DoorGuest, addr: gs.Addr(), layer: cberr.LayerHost,
			reg: cfg.Obs, counts: guestCounts(cfg.Obs, cfg.VM.Name()), probes: guestProbes(),
		}
	}
	doors = append(doors, newGuest(hostagent.GuestServerConfig{VM: agent.Pair().Secure, Host: "tdx-host"}))

	plane := faultplane.New(1)
	if err := plane.Register(faultplane.Spec{
		Point: faultplane.PointHostExec, Kind: faultplane.KindCrash, Host: "doomed", Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	doomed = newGuest(hostagent.GuestServerConfig{VM: agent.Pair().Normal, Host: "doomed", Faults: plane})
	return doors, doomed
}

func carriers(t *testing.T) map[string]api.Transport {
	cs := map[string]api.Transport{"httpjson": wire.NewHTTPJSON(), "binary": wire.NewBinary(nil)}
	t.Cleanup(func() {
		for _, c := range cs {
			_ = c.Close()
		}
	})
	return cs
}

func TestConformanceBothCarriers(t *testing.T) {
	doors, _ := bed(t)
	cs := carriers(t)
	ctx := context.Background()
	for _, d := range doors {
		for _, p := range d.probes {
			t.Run(d.name+"/"+p.name, func(t *testing.T) {
				got := map[string]outcome{}
				for name, c := range cs {
					got[name] = d.observe(t, func() (any, error) {
						out := p.out()
						return out, c.RoundTrip(ctx, d.addr, p.path, p.in, out)
					})
				}
				if !reflect.DeepEqual(got["httpjson"], got["binary"]) {
					t.Errorf("carriers disagree:\nhttpjson %+v\nbinary   %+v", got["httpjson"], got["binary"])
				}
				if p.name == "shed with Retry-After" {
					if o := got["binary"]; o.Code != cberr.CodeUnavailable || !o.Retryable || o.RetryAfter != 2*time.Second {
						t.Errorf("shed = %+v, want retryable unavailable after 2s", o)
					}
				}
			})
		}
	}
}

// rawHTTP sends one HTTP request and returns the status and decoded
// error envelope.
func rawHTTP(t *testing.T, method, url string, body io.Reader) (int, api.ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("%s %s: status %d without a JSON envelope: %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, e
}

// rawFrame sends one hand-built request frame and returns the error
// the door answers it with.
func rawFrame(t *testing.T, addr string, ft wire.Type, payload []byte) error {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendFrame(nil, ft, 1, payload)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, rp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	defer wire.PutBuf(rp)
	if h.Type != api.FrameError {
		t.Fatalf("malformed %s frame answered with %s, want %s", ft, h.Type, api.FrameError)
	}
	werr, derr := wire.DecodeError(rp)
	if derr != nil {
		t.Fatal(derr)
	}
	return werr
}

// TestConformanceShellRefusals covers what never reaches a handler, on
// every route of the table: a wrong method, a malformed body or frame,
// an oversize body, and a path the door does not mount all get the
// door's own enveloped, counted refusal.
func TestConformanceShellRefusals(t *testing.T) {
	doors, _ := bed(t)
	for _, d := range doors {
		envelope := func(status int, e api.ErrorResponse) func() (any, error) {
			return func() (any, error) {
				if e.Code == "" {
					return nil, fmt.Errorf("status %d carried no cberr code", status)
				}
				return nil, cberr.FromWire(e.Code, e.Layer, e.Retryable, e.Error)
			}
		}
		refused := func(t *testing.T, o outcome, code cberr.Code) {
			t.Helper()
			if o.Code != code || o.Layer != d.layer || o.Retryable || o.Counts[1] != 1 {
				t.Errorf("refusal = %+v, want %s/%s counted once", o, code, d.layer)
			}
		}
		for _, rt := range api.Routes {
			path := strings.ReplaceAll(rt.Path, "{id}", "async-1")
			url := "http://" + d.addr + path
			if rt.Doors&d.which == 0 {
				// Not this door's route: the catch-all answers.
				t.Run(d.name+"/unmounted "+rt.Method+" "+rt.Path, func(t *testing.T) {
					o := d.observe(t, func() (any, error) {
						status, e := rawHTTP(t, rt.Method, url, nil)
						if status != http.StatusNotFound {
							t.Errorf("status = %d, want 404", status)
						}
						return envelope(status, e)()
					})
					refused(t, o, cberr.CodeNotFound)
				})
				continue
			}
			t.Run(d.name+"/wrong method "+rt.Path, func(t *testing.T) {
				o := d.observe(t, func() (any, error) {
					status, e := rawHTTP(t, http.MethodPut, url, nil)
					if status != http.StatusMethodNotAllowed {
						t.Errorf("status = %d, want 405", status)
					}
					return envelope(status, e)()
				})
				refused(t, o, cberr.CodeInvalid)
			})
			if rt.Method != http.MethodPost {
				continue
			}
			t.Run(d.name+"/malformed "+rt.Path, func(t *testing.T) {
				viaHTTP := d.observe(t, func() (any, error) {
					return envelope(rawHTTP(t, http.MethodPost, url, strings.NewReader(`{"function":`)))()
				})
				refused(t, viaHTTP, cberr.CodeInvalid)
				if rt.Req == 0 {
					return
				}
				viaFrame := d.observe(t, func() (any, error) {
					return nil, rawFrame(t, d.addr, rt.Req, []byte{0xff})
				})
				if !reflect.DeepEqual(viaHTTP, viaFrame) {
					t.Errorf("carriers disagree:\nhttp  %+v\nframe %+v", viaHTTP, viaFrame)
				}
			})
		}
		invoke := api.PathV1Invoke
		if d.which == api.DoorGuest {
			invoke = api.GuestV1Invoke
		}
		// One oversize body declares its length, the other is chunked
		// (http.NewRequest knows no length for a MultiReader): neither
		// may reach a handler.
		oversize := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte{'a'}, wire.MaxPayload)...), `"}`...)
		for _, row := range []struct {
			name string
			body func() io.Reader
		}{
			{"oversize body", func() io.Reader { return bytes.NewReader(oversize) }},
			{"oversize chunked body", func() io.Reader { return io.MultiReader(bytes.NewReader(oversize)) }},
		} {
			t.Run(d.name+"/"+row.name, func(t *testing.T) {
				o := d.observe(t, func() (any, error) {
					return envelope(rawHTTP(t, http.MethodPost, "http://"+d.addr+invoke, row.body()))()
				})
				refused(t, o, cberr.CodeInvalid)
			})
		}
		t.Run(d.name+"/unknown frame", func(t *testing.T) {
			o := d.observe(t, func() (any, error) {
				return nil, rawFrame(t, d.addr, api.FrameInvokeResp, []byte("junk"))
			})
			refused(t, o, cberr.CodeInvalid)
		})
	}
}

// TestConformanceSeveredGuest: a guest dying mid-request (crash fault
// at hostagent.exec) looks the same under both carriers — the
// connection is cut with no reply (http.ErrAbortHandler there,
// wire.ErrSever here), so the caller's own carrier classifies a
// retryable failure, and the guest counts one request and one error.
func TestConformanceSeveredGuest(t *testing.T) {
	_, doomed := bed(t)
	req := &api.GuestInvokeRequest{Function: faas.Function{Name: "f", Language: "go", Workload: "fib"}, Scale: 10}
	for name, c := range carriers(t) {
		o := doomed.observe(t, func() (any, error) {
			var resp api.InvokeResponse
			return &resp, c.RoundTrip(context.Background(), doomed.addr, api.GuestV1Invoke, req, &resp)
		})
		if o.Code == "" || !o.Retryable || o.Layer == cberr.LayerHost {
			t.Errorf("%s: severed guest = %+v, want a retryable carrier-side failure", name, o)
		}
		if o.Counts != [3]uint64{1, 1, 0} {
			t.Errorf("%s: guest counted %v, want one request and one error", name, o.Counts)
		}
	}
}
