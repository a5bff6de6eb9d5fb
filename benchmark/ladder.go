package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/hostagent"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/relay"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/vm"
	"confbench/internal/wire"
	"confbench/internal/workloads"
)

// The door ladder enters the pipeline at successive public doors with
// the same requests, serially, and reads each layer's cost off the
// difference between adjacent doors. Each request visits every door
// before the next request starts, so the differences are paired per
// request and drift between doors cancels.

// door is one public entry point of the invoke pipeline.
type door struct {
	name string
	call func(ctx context.Context, r request) error
}

// guestRig is a guest agent the benchmark built itself on one VM, with
// and without a relay in front, so the relay's cost can be read as a
// difference and the carrier timed against a known peer.
type guestRig struct {
	machine *vm.VM
	server  *hostagent.GuestServer
	relay   *relay.Relay
	direct  string // guest agent address
	relayed string // relay address
}

func newGuestRig(machine *vm.VM, reg *obs.Registry) (*guestRig, error) {
	gs, err := hostagent.NewGuestServer(hostagent.GuestServerConfig{VM: machine, Obs: reg, Host: "ladder"})
	if err != nil {
		return nil, err
	}
	rl := relay.New(gs.Addr())
	rl.SetObs(reg, machine.Name())
	addr, err := rl.Start("127.0.0.1:0")
	if err != nil {
		_ = gs.Close()
		return nil, err
	}
	return &guestRig{machine: machine, server: gs, relay: rl, direct: gs.Addr(), relayed: addr}, nil
}

func (g *guestRig) close() error {
	return errors.Join(g.relay.Close(), g.server.Close())
}

// ladder holds the doors below the deployment's own: benchmark-built
// VM pairs (one per deployed TEE) with a guest rig on each VM.
type ladder struct {
	catalog   *workloads.Registry
	transport api.Transport
	pairs     []vm.Pair
	rigs      map[tee.Kind]map[bool]*guestRig
	launchers map[tee.Kind]map[string]faas.Launcher
}

// newLadder builds the lower doors for the bed's deployed TEEs.
func newLadder(b *bed) (*ladder, error) {
	l := &ladder{
		catalog:   b.cluster.Catalog(),
		transport: wire.NewBinary(b.reg),
		rigs:      make(map[tee.Kind]map[bool]*guestRig),
		launchers: make(map[tee.Kind]map[string]faas.Launcher),
	}
	for _, kind := range b.cluster.Kinds() {
		backend, err := b.cluster.Backend(kind)
		if err != nil {
			_ = l.close()
			return nil, err
		}
		pair, err := vm.NewPair(backend, tee.GuestConfig{Name: "ladder-" + string(kind), MemoryMB: 8}, l.catalog)
		if err != nil {
			_ = l.close()
			return nil, err
		}
		l.pairs = append(l.pairs, pair)
		l.rigs[kind] = make(map[bool]*guestRig, 2)
		for _, machine := range []*vm.VM{pair.Secure, pair.Normal} {
			rig, err := newGuestRig(machine, b.reg)
			if err != nil {
				_ = l.close()
				return nil, err
			}
			l.rigs[kind][machine.Secure()] = rig
		}
		ls, err := langs.NewAllLaunchers(kind, l.catalog)
		if err != nil {
			_ = l.close()
			return nil, err
		}
		l.launchers[kind] = ls
	}
	return l, nil
}

func (l *ladder) close() error {
	var errs []error
	for _, byVM := range l.rigs {
		for _, rig := range byVM {
			errs = append(errs, rig.close())
		}
	}
	for _, p := range l.pairs {
		errs = append(errs, p.Stop())
	}
	errs = append(errs, l.transport.Close())
	return errors.Join(errs...)
}

// guestRoundTrip sends the request's guest-agent form to addr.
func (l *ladder) guestRoundTrip(ctx context.Context, addr string, r request) error {
	var out api.InvokeResponse
	return l.transport.RoundTrip(ctx, addr, api.GuestV1Invoke,
		&api.GuestInvokeRequest{Function: r.function(), Scale: r.Scale}, &out)
}

// doors lists the bed's doors from the client edge down to the bare
// workload. The top doors depend on the topology; from the guest hop
// down they are the ladder's own. The last two doors are the client
// and the gateway again with Trace set: the traced client call feeds
// its span tree and latency to attr, and the pair's difference is what
// lies above the gateway's root span when tracing is on.
func (l *ladder) doors(b *bed, attr *spanAgg) ([]door, error) {
	var ds []door
	ds = append(ds, door{"client", func(ctx context.Context, r request) error {
		_, err := b.client(r).Invoke(ctx, r.invoke(false))
		return err
	}})
	if tier := b.cluster.FrontTier(); tier != nil {
		// The tier's front door also takes the binary carrier; the
		// cluster's own client speaks it.
		ds = append(ds, door{"client-binary", func(ctx context.Context, r request) error {
			_, err := b.cluster.Client().Invoke(ctx, r.invoke(false))
			return err
		}}, door{"fronttier", func(ctx context.Context, r request) error {
			_, err := tier.Invoke(ctx, r.Tenant, r.invoke(false))
			return err
		}})
	}
	gw := b.cluster.Gateway()
	ds = append(ds, door{"gateway", func(ctx context.Context, r request) error {
		_, err := gw.Invoke(ctx, r.invoke(false))
		return err
	}})
	endpoints := make(map[tee.Kind]map[bool]string)
	for _, kind := range b.cluster.Kinds() {
		agent, err := b.cluster.Agent(kind)
		if err != nil {
			return nil, err
		}
		endpoints[kind] = make(map[bool]string, 2)
		for _, ep := range agent.Endpoints() {
			endpoints[kind][ep.Secure] = ep.Addr
		}
	}
	ds = append(ds,
		door{"agent-endpoint", func(ctx context.Context, r request) error {
			return l.guestRoundTrip(ctx, endpoints[r.TEE][r.Secure], r)
		}},
		door{"guest-via-relay", func(ctx context.Context, r request) error {
			return l.guestRoundTrip(ctx, l.rigs[r.TEE][r.Secure].relayed, r)
		}},
		door{"guest-direct", func(ctx context.Context, r request) error {
			return l.guestRoundTrip(ctx, l.rigs[r.TEE][r.Secure].direct, r)
		}},
		door{"vm", func(ctx context.Context, r request) error {
			_, err := l.rigs[r.TEE][r.Secure].machine.InvokeFunction(ctx, r.function(), r.Scale)
			return err
		}},
		door{"launcher", func(ctx context.Context, r request) error {
			_, err := l.launchers[r.TEE][r.Language].Launch(ctx, r.function(), r.Scale)
			return err
		}},
		door{"workload", func(ctx context.Context, r request) error {
			wl, err := l.catalog.Lookup(r.Workload)
			if err != nil {
				return err
			}
			_, err = wl.Run(meter.NewContext(), r.Scale)
			return err
		}},
		door{"client-traced", func(ctx context.Context, r request) error {
			began := time.Now()
			resp, err := b.client(r).Invoke(ctx, r.invoke(true))
			if err == nil {
				attr.add(resp.Trace, time.Since(began).Nanoseconds())
			}
			return err
		}},
		door{"gateway-traced", func(ctx context.Context, r request) error {
			_, err := gw.Invoke(ctx, r.invoke(true))
			return err
		}},
	)
	return ds, nil
}

// ladderResult holds, per door, the latency of every request that
// climbed the ladder (index-aligned across doors).
type ladderResult struct {
	lat map[string][]float64 // door → µs per request
}

// absUs is the median latency at one door, in µs.
func (r *ladderResult) absUs(door string) float64 { return median(r.lat[door]) }

// diffUs is the median over requests of (upper door − lower door), in
// µs: the cost of what lies between the two doors. 0 when either door
// is absent from this topology.
func (r *ladderResult) diffUs(upper, lower string) float64 {
	u, l := r.lat[upper], r.lat[lower]
	if len(u) == 0 || len(u) != len(l) {
		return 0
	}
	d := make([]float64, len(u))
	for i := range u {
		d[i] = u[i] - l[i]
	}
	return median(d)
}

// meanDiffUs is mean(upper door) − mean(lower door) in µs. Means add up
// where medians do not, so attribution against a summed latency uses
// this and the layer metrics use diffUs.
func (r *ladderResult) meanDiffUs(upper, lower string) float64 {
	return stats.Mean(r.lat[upper]) - stats.Mean(r.lat[lower])
}

// climb sends requests up the ladder one at a time, every door per
// request, until maxRequests are done or the budget is spent (at least
// minLadderRequests are always sent).
func climb(ctx context.Context, doors []door, list []request, maxRequests int, budget time.Duration) (*ladderResult, error) {
	res := &ladderResult{lat: make(map[string][]float64, len(doors))}
	deadline := time.Now().Add(budget)
	for i := 0; i < maxRequests; i++ {
		if i >= minLadderRequests && time.Now().After(deadline) {
			break
		}
		r := list[i%len(list)]
		for _, d := range doors {
			began := time.Now()
			if err := d.call(ctx, r); err != nil {
				return nil, fmt.Errorf("ladder door %s, %s: %w", d.name, r.Function, err)
			}
			res.lat[d.name] = append(res.lat[d.name], float64(time.Since(began).Nanoseconds())/1e3)
		}
	}
	return res, nil
}

const (
	minLadderRequests = 30
	maxLadderRequests = 1500
)
