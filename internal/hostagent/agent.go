package hostagent

import (
	"context"
	"errors"
	"fmt"
	"time"

	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/relay"
	"confbench/internal/tee"
	"confbench/internal/vm"
	"confbench/internal/workloads"
)

// Endpoint is one VM reachable through the host's port relays.
type Endpoint struct {
	// Addr is the relayed host:port the gateway dials.
	Addr string `json:"addr"`
	// Secure reports whether the VM behind it is confidential.
	Secure bool `json:"secure"`
	// TEE is the platform kind.
	TEE tee.Kind `json:"tee"`
	// VMName labels the backing VM.
	VMName string `json:"vm"`
	// Warm marks an endpoint whose VM came out of a prewarmed guest
	// pool; the gateway prefers warm endpoints when acquiring.
	Warm bool `json:"warm,omitempty"`
}

// Agent is one TEE-enabled host: it owns the secure/normal VM pair,
// their in-VM guest agents, and the socat-style relays exposing them.
type Agent struct {
	name    string
	backend tee.Backend
	pair    vm.Pair
	guests  []*GuestServer
	relays  []*relay.Relay
	eps     []Endpoint

	// pool and warmGuest are set when the agent serves its secure VM
	// out of a prewarmed guest pool.
	pool      *GuestPool
	warmGuest tee.Guest
}

// AgentConfig assembles a host agent.
type AgentConfig struct {
	// Name labels the host.
	Name string
	// Backend is the host's TEE platform.
	Backend tee.Backend
	// Guest configures the VM pair.
	Guest tee.GuestConfig
	// Catalog backs the VMs' launchers (nil = default).
	Catalog *workloads.Registry
	// Obs is the metrics registry the guest agents report to (nil =
	// the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane threaded into the host's launch path,
	// guest agents, and relays (nil = fault-free).
	Faults *faultplane.Plane
	// WarmPool, when positive, serves the secure VM from a prewarmed
	// guest pool with this high watermark instead of a cold launch.
	WarmPool int
	// Cache is the snapshot image cache backing the warm pool, usually
	// shared across the cluster's agents (nil = no caching).
	Cache *vm.SnapshotCache
}

// NewAgent boots a host: launches the VM pair, starts a guest agent in
// each, and wires one relay per VM.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("hostagent: nil backend")
	}
	if cfg.Name == "" {
		cfg.Name = string(cfg.Backend.Kind()) + "-host"
	}
	if cfg.Guest.Name == "" {
		cfg.Guest.Name = cfg.Name
	}
	if d := cfg.Faults.Evaluate(faultplane.PointHostLaunch, faultplane.Target{
		TEE: string(cfg.Backend.Kind()), Host: cfg.Name,
	}); d.Inject {
		switch d.Kind {
		case faultplane.KindLatency, faultplane.KindSlowIO:
			time.Sleep(d.Latency)
		default: // error / drop / crash: the host never comes up.
			return nil, fmt.Errorf("hostagent: %s: launch: %w", cfg.Name, d.Err)
		}
	}
	a := &Agent{name: cfg.Name, backend: cfg.Backend}
	if cfg.WarmPool > 0 {
		pool, err := NewGuestPool(GuestPoolConfig{
			Backend: cfg.Backend,
			Guest:   cfg.Guest,
			Cache:   cfg.Cache,
			High:    cfg.WarmPool,
			Obs:     cfg.Obs,
			Faults:  cfg.Faults,
			Host:    cfg.Name,
		})
		if err != nil {
			return nil, fmt.Errorf("hostagent: %s: %w", cfg.Name, err)
		}
		a.pool = pool
		pair, warmGuest, err := warmPair(pool, cfg)
		if err != nil {
			_ = pool.Shutdown(context.Background())
			return nil, fmt.Errorf("hostagent: %s: %w", cfg.Name, err)
		}
		a.pair, a.warmGuest = pair, warmGuest
	} else {
		pair, err := vm.NewPair(cfg.Backend, cfg.Guest, cfg.Catalog)
		if err != nil {
			return nil, fmt.Errorf("hostagent: %s: %w", cfg.Name, err)
		}
		a.pair = pair
	}
	for _, machine := range []*vm.VM{a.pair.Secure, a.pair.Normal} {
		gs, err := NewGuestServer(GuestServerConfig{
			VM: machine, Obs: cfg.Obs, Faults: cfg.Faults, Host: cfg.Name,
		})
		if err != nil {
			_ = a.Close()
			return nil, err
		}
		a.guests = append(a.guests, gs)
		rl := relay.New(gs.Addr())
		rl.SetFaults(cfg.Faults, cfg.Name, string(cfg.Backend.Kind()))
		rl.SetObs(cfg.Obs, machine.Name())
		addr, err := rl.Start("127.0.0.1:0")
		if err != nil {
			_ = gs.Close()
			_ = a.Close()
			return nil, err
		}
		a.relays = append(a.relays, rl)
		a.eps = append(a.eps, Endpoint{
			Addr:   addr,
			Secure: machine.Secure(),
			TEE:    cfg.Backend.Kind(),
			VMName: machine.Name(),
			Warm:   machine.Secure() && a.pool != nil,
		})
	}
	return a, nil
}

// warmPair assembles the secure/normal VM pair with the secure guest
// checked out of the warm pool.
func warmPair(pool *GuestPool, cfg AgentConfig) (vm.Pair, tee.Guest, error) {
	secureGuest, err := pool.Acquire()
	if err != nil {
		return vm.Pair{}, nil, fmt.Errorf("acquire warm guest: %w", err)
	}
	pair, err := vm.AssemblePair(cfg.Backend, cfg.Guest, cfg.Catalog, secureGuest, pool.Release)
	if err != nil {
		return vm.Pair{}, nil, err
	}
	return pair, secureGuest, nil
}

// Name returns the host label.
func (a *Agent) Name() string { return a.name }

// Backend returns the host's TEE platform.
func (a *Agent) Backend() tee.Backend { return a.backend }

// Pair returns the secure/normal VM pair (for in-process benchmarks
// that bypass the network path).
func (a *Agent) Pair() vm.Pair { return a.pair }

// Pool returns the prewarmed guest pool, or nil when the agent was
// built without one.
func (a *Agent) Pool() *GuestPool { return a.pool }

// Endpoints lists the relayed VM endpoints.
func (a *Agent) Endpoints() []Endpoint {
	return append([]Endpoint(nil), a.eps...)
}

// Endpoint returns the relayed address of the secure or normal VM.
func (a *Agent) Endpoint(secure bool) (Endpoint, error) {
	for _, ep := range a.eps {
		if ep.Secure == secure {
			return ep, nil
		}
	}
	return Endpoint{}, fmt.Errorf("hostagent: %s has no secure=%v endpoint", a.name, secure)
}

// RelayStats sums accepted connections and forwarded bytes over the
// host's relays.
func (a *Agent) RelayStats() (accepted, bytes uint64) {
	for _, r := range a.relays {
		accepted += r.Accepted()
		bytes += r.BytesForwarded()
	}
	return accepted, bytes
}

// Close tears down relays, guest agents, and the VM pair, aggregating
// every teardown error rather than stopping at the first.
func (a *Agent) Close() error {
	var errs []error
	for _, r := range a.relays {
		errs = append(errs, r.Close())
	}
	for _, g := range a.guests {
		errs = append(errs, g.Close())
	}
	errs = append(errs, a.pair.Stop())
	if a.pool != nil {
		// The secure guest was destroyed by pair.Stop; releasing it
		// just clears the lease before the pool drains.
		a.pool.Release(a.warmGuest)
		errs = append(errs, a.pool.Shutdown(context.Background()))
	}
	return errors.Join(errs...)
}
