package cca

import (
	"context"
	"fmt"
	"sync/atomic"

	"confbench/internal/cpumodel"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// Options configures the CCA backend.
type Options struct {
	// Seed drives deterministic noise.
	Seed int64
	// Obs is the metrics registry the RMM and guests report to (nil =
	// the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane guests evaluate at the TEE injection
	// points (nil = fault-free).
	Faults *faultplane.Plane
}

// Backend implements tee.Backend for ARM CCA on the FVP simulator.
// Launch, LaunchNormal, Snapshot, Restore, ExportLive and ImportLive
// are the shared tee.Lifecycle over the realm primitives of the realm
// type.
//
// Matching the paper's setup, *both* the realm and the "normal" VM run
// inside the simulator (two layers of abstraction), so LaunchNormal
// also exhibits elevated jitter, and ratios compare realm-in-FVP
// against normal-VM-in-FVP.
type Backend struct {
	*tee.Lifecycle
	rmm *RMM

	// nextPA is the first host physical address no realm has been given.
	nextPA atomic.Uint64
}

var (
	_ tee.Backend     = (*Backend)(nil)
	_ tee.Snapshotter = (*Backend)(nil)
	_ tee.Migrator    = (*Backend)(nil)
)

// NewBackend boots an FVP instance with an RMM loaded in the realm
// world, on the cpumodel.FVPNeoverse simulator model.
func NewBackend(opts Options) (*Backend, error) {
	rmm := NewRMM()
	if opts.Obs != nil {
		rmm.SetObsRegistry(opts.Obs)
	}
	b := &Backend{rmm: rmm}
	b.nextPA.Store(GranuleSize) // skip granule 0
	b.Lifecycle = tee.NewLifecycle(tee.Platform{
		Kind:           tee.KindCCA,
		IDPrefix:       "realm",
		NormalIDPrefix: "fvp-vm",
		Model:          b.CostModel(),
		NormalModel:    normalCostModel(),
		BootBase:       bootBaseNs,
		NewContext:     func() tee.Context { return &realm{b: b} },
		Seed:           opts.Seed,
		Obs:            opts.Obs,
		Faults:         opts.Faults,
	})
	return b, nil
}

// Kind implements tee.Backend.
func (b *Backend) Kind() tee.Kind { return tee.KindCCA }

// Name implements tee.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("ARM CCA (%s, FVP simulator) on %s", b.rmm.Version(), cpumodel.FVPNeoverse.Name)
}

// HostProfile implements tee.Backend.
func (b *Backend) HostProfile() cpumodel.Profile { return cpumodel.FVPNeoverse }

// Monitor exposes the RMM for inspection in tests.
func (b *Backend) Monitor() *RMM { return b.rmm }

// allocPA reserves a run of pages granules (plus a guard granule) of
// host physical address space and returns its base.
func (b *Backend) allocPA(pages int) uint64 {
	span := uint64(pages+1) * GranuleSize
	return b.nextPA.Add(span) - span
}

// CostModel returns the realm cost model. The paper finds CCA's
// overheads dominated by the simulation stack: every world switch is
// expensive, I/O crosses two abstraction layers, and run-to-run
// variance is much higher than on the bare-metal TEEs (longer whiskers
// in Fig. 8). The DBMS suite — syscall- and I/O-heavy — reaches up to
// ~10× (§IV-C).
func (b *Backend) CostModel() tee.CostModel {
	return tee.CostModel{
		CPUFactor:      1.18,
		MemFactor:      1.48,
		AllocFactor:    1.90,
		IOReadFactor:   4.10,
		IOWriteFactor:  4.60,
		NetFactor:      3.80,
		LogFactor:      3.40,
		FileOpFactor:   4.20,
		CtxSwitchFac:   3.10,
		SpawnFactor:    2.60,
		SyscallFactor:  16.0,
		ExitNs:         26000,
		ExitsPerSys:    0.08,
		ExitsPerSwitch: 1.0,
		PageAcceptNs:   1300,
		StartupNs:      6.5e9,
		JitterStd:      0.085,
		// Realm-image reuse skips the measured data-granule build but
		// still pays the simulator for delegation replay; everything is
		// slower under the FVP, including restores.
		SnapshotPageNs: 1.5e6,
		RestoreBaseNs:  900e6,
		RestorePageNs:  0.50e6,
	}
}

// normalCostModel is the normal-VM-in-FVP model: no realm charges but
// visibly higher jitter than bare metal, since it also runs under the
// simulator.
func normalCostModel() tee.CostModel {
	cm := tee.NormalCostModel()
	cm.JitterStd = 0.045
	return cm
}

// bootBaseNs is the in-simulator VM boot cost.
const bootBaseNs = 9.5e9

// realmState is the serialized form of a realm: the personalization
// value and the granule count to rebuild it around the sealed RIM
// (which travels in the image's Measurement field, where the
// destination's attestation gate verifies it). One granule per MiB of
// configured memory stands in for the image.
type realmState struct {
	RPV   []byte `json:"rpv"`
	Pages int    `json:"pages"`
}

// PageCount implements tee.State.
func (s *realmState) PageCount() int { return s.Pages }

// realm is one realm as the shared lifecycle drives it.
type realm struct {
	b  *Backend
	id uint64 // 0 until the RMM has created the realm
	// base is the first of the realm's host granules; delegated counts
	// how many from base are in the realm world and ours to return.
	base      uint64
	delegated int
	st        realmState
}

var _ tee.Context = (*realm)(nil)

// State implements tee.Context.
func (r *realm) State() tee.State { return &r.st }

// Build implements tee.Context: create the realm, delegate granules
// and populate it with measured data granules, activate it.
func (r *realm) Build(cfg tee.GuestConfig) error {
	r.st = realmState{RPV: []byte(cfg.Name), Pages: cfg.MemoryMB}
	r.base = r.b.allocPA(r.st.Pages)
	rmm := r.b.rmm
	id, err := rmm.RMIRealmCreate(r.st.RPV)
	if err != nil {
		return err
	}
	r.id = id
	for i := 0; i < r.st.Pages; i++ {
		pa := r.base + uint64(i)*GranuleSize
		if err := rmm.RMIGranuleDelegate(pa); err != nil {
			return err
		}
		r.delegated++
		content := []byte(fmt.Sprintf("realm-image:%s:%d", cfg.Name, i))
		if err := rmm.RMIDataCreate(id, pa, content); err != nil {
			return err
		}
	}
	return rmm.RMIRealmActivate(id)
}

// Import implements tee.Context: fresh granules are delegated to a
// realm created directly active around the sealed RIM — the measured
// data-granule build is skipped.
func (r *realm) Import(rim tee.Measurement) error {
	r.base = r.b.allocPA(r.st.Pages)
	pas := make([]uint64, r.st.Pages)
	for i := range pas {
		pas[i] = r.base + uint64(i)*GranuleSize
	}
	id, err := r.b.rmm.RMIRealmImport(r.st.RPV, rim, pas)
	if err != nil {
		return err
	}
	r.id, r.delegated = id, len(pas)
	return nil
}

// Measurement implements tee.Context: the RIM read back via
// RSI_MEASUREMENT_READ, the realm-world measurement interface.
func (r *realm) Measurement() (tee.Measurement, error) {
	return r.b.rmm.RSIMeasurementRead(r.id)
}

// Report implements tee.Context. The FVP lacks the hardware support
// attestation requires (§IV-B: "We leave out CCA as the simulator
// lacks the required hardware support") — the migration gate verifies
// the RIM via RSI_MEASUREMENT_READ instead.
func (r *realm) Report(context.Context, []byte) ([]byte, error) {
	return nil, tee.ErrNoAttestation
}

// Teardown implements tee.Context: the realm is destroyed and its
// granules go back to the normal world.
func (r *realm) Teardown() error {
	var first error
	if r.id != 0 {
		first = r.b.rmm.RMIRealmDestroy(r.id)
	}
	for i := 0; i < r.delegated; i++ {
		if err := r.b.rmm.RMIGranuleUndelegate(r.base + uint64(i)*GranuleSize); err != nil && first == nil {
			first = err
		}
	}
	return first
}
