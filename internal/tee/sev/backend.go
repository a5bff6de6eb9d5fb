package sev

import (
	"context"
	"fmt"
	"sync/atomic"

	"confbench/internal/cpumodel"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// Options configures the SEV-SNP backend.
type Options struct {
	// Seed drives deterministic noise and the chip identity.
	Seed int64
	// Obs is the metrics registry the RMP and guests report to (nil =
	// the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane guests evaluate at the TEE injection
	// points (nil = fault-free).
	Faults *faultplane.Plane
}

// Backend implements tee.Backend for AMD SEV-SNP. Launch,
// LaunchNormal, Snapshot, Restore, ExportLive and ImportLive are the
// shared tee.Lifecycle over the SNP primitives of the snpGuest type.
type Backend struct {
	*tee.Lifecycle
	sp  *AMDSP
	rmp *RMP

	// lastASID is the most recent address-space ID handed to a guest
	// context; they count up from 1.
	lastASID atomic.Uint32
}

var (
	_ tee.Backend     = (*Backend)(nil)
	_ tee.Snapshotter = (*Backend)(nil)
	_ tee.Migrator    = (*Backend)(nil)
)

// NewBackend provisions an SEV-SNP host: an AMD-SP with a fresh
// VCEK/ASK/ARK hierarchy and an empty RMP, on a cpumodel.EPYC9124.
func NewBackend(opts Options) (*Backend, error) {
	sp, err := NewAMDSP(opts.Seed)
	if err != nil {
		return nil, err
	}
	rmp := NewRMP()
	if opts.Obs != nil {
		rmp.SetObsRegistry(opts.Obs)
	}
	b := &Backend{sp: sp, rmp: rmp}
	b.Lifecycle = tee.NewLifecycle(tee.Platform{
		Kind:           tee.KindSEV,
		IDPrefix:       "snp",
		NormalIDPrefix: "vm",
		Model:          b.CostModel(),
		NormalModel:    tee.NormalCostModel(),
		BootBase:       bootBaseNs,
		NewContext:     func() tee.Context { return &snpGuest{b: b} },
		Seed:           opts.Seed,
		Obs:            opts.Obs,
		Faults:         opts.Faults,
	})
	return b, nil
}

// Kind implements tee.Backend.
func (b *Backend) Kind() tee.Kind { return tee.KindSEV }

// Name implements tee.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("AMD SEV-SNP on %s", cpumodel.EPYC9124.Name)
}

// HostProfile implements tee.Backend.
func (b *Backend) HostProfile() cpumodel.Profile { return cpumodel.EPYC9124 }

// SecureProcessor exposes the AMD-SP, used by the attestation stack to
// fetch the VCEK certificate chain "from the underlying hardware".
func (b *Backend) SecureProcessor() *AMDSP { return b.sp }

// ReverseMap exposes the RMP for inspection in tests.
func (b *Backend) ReverseMap() *RMP { return b.rmp }

// CostModel returns the confidential-guest cost model. Relative to
// TDX the paper finds SEV-SNP slightly slower on CPU/memory work but
// faster on I/O (guest-shared unencrypted pages avoid the TDX bounce-
// buffer copy), with VMEXITs cheaper than TDCALL/SEAMCALL round trips.
func (b *Backend) CostModel() tee.CostModel {
	return tee.CostModel{
		CPUFactor:      1.035,
		MemFactor:      1.14,
		AllocFactor:    1.16,
		IOReadFactor:   1.30,
		IOWriteFactor:  1.42,
		NetFactor:      1.35,
		LogFactor:      1.28,
		FileOpFactor:   1.35,
		CtxSwitchFac:   1.75,
		SpawnFactor:    1.55,
		SyscallFactor:  1.12,
		ExitNs:         4600,
		ExitsPerSys:    0.006,
		ExitsPerSwitch: 1.00,
		PageAcceptNs:   600,
		StartupNs:      700e6,
		JitterStd:      0.022,
		// Restores replay RMP page donation (RMPUPDATE+PVALIDATE per
		// page) but install the saved launch digest in one firmware
		// call, skipping the per-page measurement hashing.
		SnapshotPageNs: 0.35e6,
		RestoreBaseNs:  100e6,
		RestorePageNs:  0.12e6,
	}
}

// bootBaseNs is the plain-VM boot cost on this host class.
const bootBaseNs = 2.0e9

// snpState is the serialized form of an SNP guest: the guest policy
// and the RMP donation shape to replay on the destination (one page per
// MiB of configured memory). The sealed launch digest travels in the
// image's Measurement field, where the destination's attestation gate
// verifies it before LAUNCH_IMPORT.
type snpState struct {
	Policy uint64 `json:"policy"`
	Pages  int    `json:"pages"`
}

// PageCount implements tee.State.
func (s *snpState) PageCount() int { return s.Pages }

// snpGuest is one SNP guest context as the shared lifecycle drives it.
type snpGuest struct {
	b      *Backend
	asid   uint32 // 0 until Build or Import draws one
	digest tee.Measurement
	st     snpState
}

var _ tee.Context = (*snpGuest)(nil)

// State implements tee.Context.
func (g *snpGuest) State() tee.State { return &g.st }

// donate hands page i to the guest: RMPUPDATE assigns it, PVALIDATE
// validates it.
func (g *snpGuest) donate(i int) error {
	pa := (uint64(g.asid)<<32 | uint64(i)) * PageSize
	if err := g.b.rmp.Assign(pa, g.asid); err != nil {
		return err
	}
	return g.b.rmp.Validate(pa, g.asid)
}

// Build implements tee.Context: SNP_LAUNCH_START → per-page
// RMPUPDATE+PVALIDATE+LAUNCH_UPDATE → SNP_LAUNCH_FINISH.
func (g *snpGuest) Build(cfg tee.GuestConfig) error {
	g.asid = g.b.lastASID.Add(1)
	g.st = snpState{
		Policy: 0x3_0000, // SMT allowed, no debug, no migration
		Pages:  cfg.MemoryMB,
	}
	if err := g.b.sp.LaunchStart(g.asid, g.st.Policy); err != nil {
		return err
	}
	for i := 0; i < g.st.Pages; i++ {
		if err := g.donate(i); err != nil {
			return err
		}
		data := []byte(fmt.Sprintf("boot-image:%s:%d", cfg.Name, i))
		if err := g.b.sp.LaunchUpdate(g.asid, data); err != nil {
			return err
		}
	}
	var err error
	g.digest, err = g.b.sp.LaunchFinish(g.asid)
	return err
}

// Import implements tee.Context: a fresh ASID gets the sealed launch
// digest in one firmware call (SNP_LAUNCH_IMPORT), and the RMP page
// donation is replayed without per-page measurement.
func (g *snpGuest) Import(digest tee.Measurement) error {
	g.asid = g.b.lastASID.Add(1)
	if err := g.b.sp.LaunchImport(g.asid, g.st.Policy, digest); err != nil {
		return err
	}
	g.digest = digest
	for i := 0; i < g.st.Pages; i++ {
		if err := g.donate(i); err != nil {
			return err
		}
	}
	return nil
}

// Measurement implements tee.Context: the launch digest the firmware
// sealed at LAUNCH_FINISH or installed at LAUNCH_IMPORT.
func (g *snpGuest) Measurement() (tee.Measurement, error) { return g.digest, nil }

// Report implements tee.Context: a VCEK-signed report at VMPL0.
func (g *snpGuest) Report(_ context.Context, nonce []byte) ([]byte, error) {
	r, err := g.b.sp.GuestRequestReport(g.asid, 0, nonce)
	if err != nil {
		return nil, err
	}
	return r.Marshal()
}

// Teardown implements tee.Context: the guest's pages go back to the
// hypervisor and its launch context is decommissioned.
func (g *snpGuest) Teardown() error {
	if g.asid == 0 {
		return nil
	}
	g.b.rmp.ReclaimAll(g.asid)
	g.b.sp.Decommission(g.asid)
	return nil
}
