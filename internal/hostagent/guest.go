// Package hostagent implements ConfBench's host-side daemon: the
// TEE-enabled machine that launches the secure/normal VM pair, runs a
// guest agent inside each VM, and steers incoming gateway traffic to
// the right VM through socat-style port relays (§III-A: hosts "receive
// requests from the gateway, and, based on the query arguments (i.e.,
// destination port), they will route them to the appropriate
// destination").
package hostagent

import (
	"context"
	"errors"
	"fmt"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/vm"
	"confbench/internal/wire"
)

// GuestServer is the agent running inside one VM: a small front door
// executing invoke and attest requests against the VM.
type GuestServer struct {
	vm   *vm.VM
	door *door.Server

	faults *faultplane.Plane
	target faultplane.Target // this VM, for fault-spec matching

	requests *obs.Counter
	latency  *obs.Histogram
}

// GuestServerConfig assembles a guest agent.
type GuestServerConfig struct {
	// VM is the machine the agent executes against (required).
	VM *vm.VM
	// Obs is the metrics registry (nil = the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane evaluated at hostagent.exec (nil =
	// fault-free).
	Faults *faultplane.Plane
	// Host labels the agent's host for fault-spec matching.
	Host string
}

// NewGuestServer starts the guest agent on a localhost ephemeral port,
// reporting its request metrics to cfg.Obs. Like every front door it
// accepts both carriers on the one port.
func NewGuestServer(cfg GuestServerConfig) (*GuestServer, error) {
	machine := cfg.VM
	if machine == nil {
		return nil, errors.New("hostagent: nil vm")
	}
	r := obs.OrDefault(cfg.Obs)
	g := &GuestServer{
		vm:       machine,
		faults:   cfg.Faults,
		target:   faultplane.Target{TEE: string(machine.Platform()), Host: cfg.Host, VM: machine.Name()},
		requests: r.Counter("confbench_hostagent_requests_total", "vm", machine.Name()),
		latency:  r.Histogram("confbench_hostagent_request_seconds", "vm", machine.Name()),
	}
	srv, err := door.Listen("127.0.0.1:0", door.Config{
		Layer: cberr.LayerHost,
		Routes: []door.Handler{
			door.Post(api.GuestV1Invoke, g.execInvoke),
			door.Post(api.GuestV1Attest, g.execAttest),
			door.Get(api.GuestV1Health, func(context.Context) (api.Health, error) {
				return api.Health{Status: "ok", VM: machine.Name()}, nil
			}),
			// The host process's registry, for the gateway's federation
			// scraper to pull over the relay hop; not counted in the
			// request metrics — scraping must not move what it measures.
			door.Obs(api.GuestV1Obs, r),
		},
		Obs:     r,
		OnError: r.Counter("confbench_hostagent_errors_total", "vm", machine.Name()).Inc,
		Faults:  cfg.Faults,
		Target:  g.target,
	})
	if err != nil {
		return nil, fmt.Errorf("hostagent: guest %w", err)
	}
	g.door = srv
	return g, nil
}

// Addr returns the guest agent's listen address.
func (g *GuestServer) Addr() string { return g.door.Addr() }

// VM returns the wrapped VM.
func (g *GuestServer) VM() *vm.VM { return g.vm }

// execInvoke runs one guest invocation — metrics, fault injection,
// tracing, VM execution — independent of the carrier (guests have no
// tenants). A crash/drop fault returns wire.ErrSever: the front door
// turns it into an aborted HTTP connection or a severed wire one, so a
// dying guest looks identical under both transports. Failures are
// counted by the door, like every other refusal it answers.
func (g *GuestServer) execInvoke(ctx context.Context, _ string, req api.GuestInvokeRequest) (api.InvokeResponse, error) {
	g.requests.Inc()
	start := time.Now()
	// When the caller wants a trace, this side of the network hop
	// starts its own root (the gateway's clock is not ours); the tree
	// rides back in the response for the gateway to graft.
	var root *obs.Span
	if req.Trace {
		ctx, root = obs.NewRoot(ctx, "hostagent", "invoke "+g.vm.Name())
	}
	if d := g.faults.Evaluate(faultplane.PointHostExec, g.target); d.Inject {
		if root != nil {
			root.SetAttr("faultplane", string(d.Kind))
		}
		switch d.Kind {
		case faultplane.KindLatency, faultplane.KindSlowIO:
			time.Sleep(d.Latency)
		case faultplane.KindError:
			if root != nil {
				root.End()
			}
			return api.InvokeResponse{}, d.Err
		default: // crash / drop: the agent dies mid-request — the
			// gateway sees a severed connection, not an error reply.
			return api.InvokeResponse{}, wire.ErrSever
		}
	}
	res, err := g.vm.InvokeFunction(ctx, req.Function, req.Scale)
	g.latency.Observe(time.Since(start))
	if err != nil {
		return api.InvokeResponse{}, cberr.From(err, cberr.LayerHost)
	}
	resp := api.InvokeResponse{
		Output:      res.Output,
		WallNs:      res.Wall.Nanoseconds(),
		BootstrapNs: res.Bootstrap.Nanoseconds(),
		Perf:        res.Perf,
		Secure:      res.Secure,
		Platform:    res.Platform,
		VM:          g.vm.Name(),
	}
	if root != nil {
		root.End()
		resp.Trace = root.Data()
	}
	return resp, nil
}

// execAttest runs one attestation round trip, carrier-independent.
func (g *GuestServer) execAttest(ctx context.Context, _ string, req api.AttestRequest) (api.AttestResponse, error) {
	start := time.Now()
	evidence, err := g.vm.AttestationReport(ctx, req.Nonce)
	if err != nil {
		return api.AttestResponse{}, cberr.From(err, cberr.LayerHost)
	}
	return api.AttestResponse{
		Evidence: evidence,
		AttestNs: time.Since(start).Nanoseconds(),
	}, nil
}

// Close shuts the guest agent down (the VM itself is owned by the
// host agent).
func (g *GuestServer) Close() error { return g.door.Close() }
