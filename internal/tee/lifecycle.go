package tee

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"confbench/internal/faultplane"
	"confbench/internal/obs"
)

// MaxImagePages bounds the page count an image's state may claim: 4 GiB
// of 4 KiB pages, the most GuestConfig.WithDefaults lets a guest have.
// An import replays one platform call per page, so an unbounded count
// in a streamed state is a memory and time bomb on the destination.
const MaxImagePages = 1 << 20

// State is a platform's serializable guest state: everything besides
// the measurement that a destination needs to rebuild the context (TD
// attributes and page set, SNP policy and RMP donation shape, realm
// personalization value and granule count). The lifecycle encodes it
// as JSON into GuestImage.State and MigrationImage.State and decodes
// it back before an import.
type State interface {
	// PageCount is the number of pages an import of this state replays.
	PageCount() int
}

// Context is one confidential context on a platform — a TD, an SNP
// guest, a realm — from before it exists until it is torn down. It is
// everything a TEE implements per guest; Lifecycle derives the rest.
//
// A context becomes running through exactly one of Build or Import.
// Its State is fixed from then on, so the lifecycle may read it from
// several goroutines.
type Context interface {
	// State points at the context's state. Build fills it in; before
	// Import the lifecycle decodes the image's state into it.
	State() State
	// Build runs the platform's measured launch flow for cfg, extending
	// the measurement page by page, and leaves the context running.
	Build(cfg GuestConfig) error
	// Import makes the context running from a sealed measurement and
	// the decoded State, with the per-page measurement skipped. A state
	// the platform's measured flow would have refused is reported as
	// ErrBadMigrationState.
	Import(m Measurement) error
	// Measurement reads the launch measurement back from the running
	// context.
	Measurement() (Measurement, error)
	// Report produces attestation evidence bound to nonce, or
	// ErrNoAttestation on a platform that cannot attest.
	Report(ctx context.Context, nonce []byte) ([]byte, error)
	// Teardown releases whatever the context holds on the platform. It
	// must cope with a context whose Build or Import failed part-way.
	Teardown() error
}

// Platform describes one TEE technology to the shared lifecycle.
type Platform struct {
	Kind Kind
	// IDPrefix and NormalIDPrefix label confidential and plain guests.
	IDPrefix, NormalIDPrefix string
	// Model prices confidential guests, NormalModel the plain VM of the
	// same host.
	Model, NormalModel CostModel
	// BootBase is the plain-VM boot cost on this host class.
	BootBase time.Duration
	// NewContext returns a context that holds nothing on the platform
	// yet.
	NewContext func() Context
	// Label names the platform's noise streams (default Kind), so that
	// two TDX modules of one seed on other firmware price apart.
	Label string

	// Seed, Obs and Faults are the backend's options of the same names.
	Seed   int64
	Obs    *obs.Registry
	Faults *faultplane.Plane
}

// Lifecycle is the confidential-guest lifecycle every backend shares:
// it implements Backend's Launch and LaunchNormal, Snapshotter and
// Migrator over a Platform, and owns live-guest tracking, image
// validation, and the teardown of whatever a failed build or import
// left behind. Backends embed it.
type Lifecycle struct {
	p Platform

	mu sync.Mutex
	// live maps running guest IDs to their contexts — the handle
	// ExportLive needs to reach the platform state behind a Guest.
	live map[string]Context
}

var (
	_ Snapshotter = (*Lifecycle)(nil)
	_ Migrator    = (*Lifecycle)(nil)
)

// NewLifecycle returns the lifecycle of platform p.
func NewLifecycle(p Platform) *Lifecycle {
	if p.Label == "" {
		p.Label = string(p.Kind)
	}
	return &Lifecycle{p: p, live: make(map[string]Context)}
}

// NoiseStream is the stream every secure or every normal guest of the
// platform draws from, whenever it was launched.
func (l *Lifecycle) NoiseStream(secure bool) uint64 {
	return NoiseStream(l.p.Seed, l.p.Label, secure)
}

// run makes a fresh context running through start, tearing down what
// it built if start fails.
func (l *Lifecycle) run(start func(Context) error) (Context, error) {
	c := l.p.NewContext()
	if err := start(c); err != nil {
		// The start error is the one worth reporting.
		_ = c.Teardown()
		return nil, err
	}
	return c, nil
}

func (l *Lifecycle) build(cfg GuestConfig) (Context, error) {
	return l.run(func(c Context) error { return c.Build(cfg) })
}

// guest wraps a running context into a guest and tracks it live until
// it is destroyed. An imported guest counts as a restore and charges
// restoreCost in place of the measured boot.
func (l *Lifecycle) guest(c Context, cfg GuestConfig, imported bool, restoreCost time.Duration) Guest {
	var g *ModelGuest
	g = NewModelGuest(ModelGuestConfig{
		IDPrefix:         l.p.IDPrefix,
		Kind:             l.p.Kind,
		Secure:           true,
		Model:            l.p.Model,
		BootBase:         l.p.BootBase,
		BootCostOverride: restoreCost,
		Restored:         imported,
		Stream:           l.NoiseStream(true),
		Obs:              l.p.Obs,
		Faults:           l.p.Faults,
		Host:             cfg.Name,
		Report:           c.Report,
		Destroy: func() error {
			l.mu.Lock()
			delete(l.live, g.ID())
			l.mu.Unlock()
			return c.Teardown()
		},
	})
	l.mu.Lock()
	l.live[g.ID()] = c
	l.mu.Unlock()
	return g
}

// Launch implements Backend: one measured build, wrapped into a guest
// that charges the full confidential boot.
func (l *Lifecycle) Launch(cfg GuestConfig) (Guest, error) {
	cfg = cfg.WithDefaults()
	c, err := l.build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s launch: %w", l.p.Kind, err)
	}
	return l.guest(c, cfg, false, 0), nil
}

// LaunchNormal implements Backend: a plain VM on the same host.
func (l *Lifecycle) LaunchNormal(cfg GuestConfig) (Guest, error) {
	cfg = cfg.WithDefaults()
	return NewModelGuest(ModelGuestConfig{
		IDPrefix: l.p.NormalIDPrefix,
		Kind:     KindNone,
		Model:    l.p.NormalModel,
		BootBase: l.p.BootBase,
		Stream:   l.NoiseStream(false),
		Obs:      l.p.Obs,
	}), nil
}

// readBack captures a running context's measurement and encoded state.
func readBack(c Context) (m Measurement, state []byte, err error) {
	if m, err = c.Measurement(); err != nil {
		return m, nil, err
	}
	state, err = json.Marshal(c.State())
	return m, state, err
}

// Snapshot implements Snapshotter: the same measured build as Launch,
// read back into an image, then torn down.
func (l *Lifecycle) Snapshot(cfg GuestConfig) (*GuestImage, error) {
	cfg = cfg.WithDefaults()
	c, err := l.build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s snapshot: %w", l.p.Kind, err)
	}
	m, state, err := readBack(c)
	if terr := c.Teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, fmt.Errorf("%s snapshot: %w", l.p.Kind, err)
	}
	return &GuestImage{
		Kind:        l.p.Kind,
		MemoryMB:    cfg.MemoryMB,
		SizeBytes:   int64(cfg.MemoryMB) << 20,
		RestoreCost: l.p.Model.RestoreCost(c.State().PageCount()),
		Measurement: m[:],
		State:       state,
	}, nil
}

// importGuest is the one unmeasured rebuild behind Restore and
// ImportLive: decode and bound the state, import it under the sealed
// measurement, and charge cost as the new guest's boot.
func (l *Lifecycle) importGuest(measurement, state []byte, cost time.Duration, cfg GuestConfig) (Guest, error) {
	var m Measurement
	copy(m[:], measurement)
	c, err := l.run(func(c Context) error {
		st := c.State()
		if err := json.Unmarshal(state, st); err != nil {
			return fmt.Errorf("%w: %v", ErrBadMigrationState, err)
		}
		if n := st.PageCount(); n < 0 || n > MaxImagePages {
			return fmt.Errorf("%w: %d pages", ErrBadMigrationState, n)
		}
		return c.Import(m)
	})
	if err != nil {
		return nil, err
	}
	return l.guest(c, cfg.WithDefaults(), true, cost), nil
}

// Restore implements Snapshotter: the restored guest attests with the
// image's measurement and charges the image's restore cost as boot.
func (l *Lifecycle) Restore(img *GuestImage, cfg GuestConfig) (Guest, error) {
	if err := img.Validate(l.p.Kind); err != nil {
		return nil, fmt.Errorf("%s restore: %w", l.p.Kind, err)
	}
	g, err := l.importGuest(img.Measurement, img.State, img.RestoreCost, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s restore: %w", l.p.Kind, err)
	}
	return g, nil
}

// ExportLive implements Migrator: the guest keeps running — reading
// its context back does not change it — so the source serves until the
// migration engine cuts over.
func (l *Lifecycle) ExportLive(g Guest) (*MigrationImage, error) {
	if g == nil {
		return nil, fmt.Errorf("%s export: %w", l.p.Kind, ErrNotLive)
	}
	l.mu.Lock()
	c, ok := l.live[g.ID()]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%s export %s: %w", l.p.Kind, g.ID(), ErrNotLive)
	}
	m, state, err := readBack(c)
	if err != nil {
		return nil, fmt.Errorf("%s export: %w", l.p.Kind, err)
	}
	pages := c.State().PageCount()
	return &MigrationImage{
		Kind:        l.p.Kind,
		MemoryMB:    pages, // one page per MiB stands in for the image
		Measurement: m[:],
		State:       state,
		ExportCost:  l.p.Model.SnapshotCost(pages),
		ResumeCost:  l.p.Model.RestoreCost(pages),
	}, nil
}

// ImportLive implements Migrator. The imported guest is tracked live,
// so re-exporting it reproduces the measurement — the destination's
// attestation gate depends on that.
func (l *Lifecycle) ImportLive(img *MigrationImage, cfg GuestConfig) (Guest, error) {
	if err := img.Validate(l.p.Kind); err != nil {
		return nil, fmt.Errorf("%s import: %w", l.p.Kind, err)
	}
	g, err := l.importGuest(img.Measurement, img.State, img.ResumeCost, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s import: %w", l.p.Kind, err)
	}
	return g, nil
}
