package tee

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/faultplane"
	"confbench/internal/meter"
	"confbench/internal/obs"
)

// guestSeq numbers guests for unique IDs across all backends.
var guestSeq atomic.Uint64

// NextGuestID mints a unique guest identifier with the given prefix.
func NextGuestID(prefix string) string {
	return fmt.Sprintf("%s-%06d", prefix, guestSeq.Add(1))
}

// ReportFunc produces attestation evidence for a guest given a nonce.
type ReportFunc func(ctx context.Context, nonce []byte) ([]byte, error)

// DestroyFunc releases backend-side resources of a guest.
type DestroyFunc func() error

// ModelGuest is the shared Guest implementation used by every backend.
// Backends compose it with their structural simulations (TDX module,
// SEV RMP, CCA RMM) by supplying a cost model, a report function, and
// a destroy hook.
type ModelGuest struct {
	id     string
	kind   Kind
	secure bool
	model  CostModel
	boot   time.Duration

	// transitions counts priced world/VM transitions; bounceBytes
	// counts bytes that crossed the bounce buffer (secure I/O).
	transitions *obs.Counter
	bounceBytes *obs.Counter

	faults    *faultplane.Plane
	host      string
	stream    uint64 // keys the guest's pricing noise (NoiseStream)
	destroyed atomic.Bool

	report  ReportFunc
	destroy DestroyFunc
}

var _ Guest = (*ModelGuest)(nil)

// ModelGuestConfig assembles a ModelGuest.
type ModelGuestConfig struct {
	IDPrefix string
	Kind     Kind
	Secure   bool
	Model    CostModel
	// BootBase is the baseline VM boot time; the model's StartupNs is
	// added on top for secure guests.
	BootBase time.Duration
	// BootCostOverride, when positive, replaces the computed
	// BootBase+StartupNs boot cost — restored guests charge their
	// image's restore cost instead of a full measured boot.
	BootCostOverride time.Duration
	// Restored marks a guest rebuilt from a snapshot image; it is
	// counted under confbench_tee_guest_restores_total instead of the
	// launches counter.
	Restored bool
	// Stream is the guest's noise stream.
	Stream  uint64
	Report  ReportFunc
	Destroy DestroyFunc
	// Obs is the metrics registry transition and bounce-buffer
	// counters report to (nil = the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane evaluated at the tee.transition and
	// tee.bounce_io points while pricing (nil = fault-free).
	Faults *faultplane.Plane
	// Host labels the guest's host for fault-spec matching.
	Host string
}

// NewModelGuest builds a guest from cfg.
func NewModelGuest(cfg ModelGuestConfig) *ModelGuest {
	boot := cfg.BootBase
	if cfg.Secure {
		boot += cfg.Model.BootCost()
	}
	if cfg.BootCostOverride > 0 {
		boot = cfg.BootCostOverride
	}
	r := obs.OrDefault(cfg.Obs)
	kind := string(cfg.Kind)
	if cfg.Restored {
		r.Counter("confbench_tee_guest_restores_total", "tee", kind).Inc()
	} else {
		r.Counter("confbench_tee_guest_launches_total", "tee", kind).Inc()
	}
	return &ModelGuest{
		id:          NextGuestID(cfg.IDPrefix),
		kind:        cfg.Kind,
		secure:      cfg.Secure,
		model:       cfg.Model,
		boot:        boot,
		transitions: r.Counter("confbench_tee_transitions_total", "tee", kind),
		bounceBytes: r.Counter("confbench_tee_bounce_buffer_bytes_total", "tee", kind),
		faults:      cfg.Faults,
		host:        cfg.Host,
		stream:      cfg.Stream,
		report:      cfg.Report,
		destroy:     cfg.Destroy,
	}
}

// ID implements Guest.
func (g *ModelGuest) ID() string { return g.id }

// Kind implements Guest.
func (g *ModelGuest) Kind() Kind { return g.kind }

// Secure implements Guest.
func (g *ModelGuest) Secure() bool { return g.secure }

// BootCost implements Guest.
func (g *ModelGuest) BootCost() time.Duration { return g.boot }

// Price implements Guest, drawing the jitter under (stream, key), so it
// takes no lock. On secure guests the fault plane is consulted at the
// transition and bounce-buffer points; an injected fault degrades the
// priced virtual time (Charge.Fault/FaultDelay) rather than erroring —
// a wedged TDX module or RMP contention slows the guest down, it does
// not return an error code.
func (g *ModelGuest) Price(u meter.Usage, base cpumodel.Breakdown, key Key) Charge {
	charge := g.model.price(u, base, draw(g.stream, key))
	if g.secure {
		if charge.Exits > 0 {
			g.transitions.Add(charge.Exits)
		}
		bytes := u.Get(meter.IOReadBytes) + u.Get(meter.IOWriteBytes)
		if bytes > 0 {
			g.bounceBytes.Add(bytes)
		}
		target := faultplane.Target{TEE: string(g.kind), Host: g.host, VM: g.id}
		if charge.Exits > 0 {
			if d := g.faults.Evaluate(faultplane.PointTEETransition, target); d.Inject {
				charge.Fault = string(d.Kind)
				charge.FaultDelay += d.Latency
			}
		}
		if bytes > 0 {
			if d := g.faults.Evaluate(faultplane.PointTEEBounceIO, target); d.Inject {
				if charge.Fault == "" {
					charge.Fault = string(d.Kind)
				}
				charge.FaultDelay += d.Latency
			}
		}
		charge.Total += charge.FaultDelay
	}
	return charge
}

// AttestationReport implements Guest.
func (g *ModelGuest) AttestationReport(ctx context.Context, nonce []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.destroyed.Load() {
		return nil, ErrGuestDestroyed
	}
	if !g.secure {
		return nil, ErrNotSecure
	}
	if g.report == nil {
		return nil, ErrNoAttestation
	}
	return g.report(ctx, nonce)
}

// Destroy implements Guest. Destroy is idempotent.
func (g *ModelGuest) Destroy() error {
	if g.destroyed.Swap(true) || g.destroy == nil {
		return nil
	}
	return g.destroy()
}

// Destroyed reports whether Destroy has been called.
func (g *ModelGuest) Destroyed() bool { return g.destroyed.Load() }
