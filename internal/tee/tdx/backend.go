package tdx

import (
	"context"
	"fmt"

	"confbench/internal/cpumodel"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// Options configures the TDX backend.
type Options struct {
	// FirmwareVersion is the TDX module version; defaults to
	// CurrentFirmware. Using BuggyFirmware reproduces the consistent
	// ~10× overhead the paper observed before Intel's upgrade.
	FirmwareVersion string
	// Seed drives deterministic noise: with the firmware version it
	// names the noise streams of the backend's guests.
	Seed int64
	// Obs is the metrics registry the module and guests report to
	// (nil = the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane guests evaluate at the TEE injection
	// points (nil = fault-free).
	Faults *faultplane.Plane
}

// Backend implements tee.Backend for Intel TDX. Launch, LaunchNormal,
// Snapshot, Restore, ExportLive and ImportLive are the shared
// tee.Lifecycle over the TD primitives of the td type.
type Backend struct {
	*tee.Lifecycle
	module *Module
}

var (
	_ tee.Backend     = (*Backend)(nil)
	_ tee.Snapshotter = (*Backend)(nil)
	_ tee.Migrator    = (*Backend)(nil)
)

// NewBackend creates a TDX backend with a freshly loaded module on a
// cpumodel.XeonGold5515 host.
func NewBackend(opts Options) (*Backend, error) {
	if opts.FirmwareVersion == "" {
		opts.FirmwareVersion = CurrentFirmware
	}
	module := NewModule(opts.FirmwareVersion, opts.Seed)
	if opts.Obs != nil {
		module.SetObsRegistry(opts.Obs)
	}
	b := &Backend{module: module}
	b.Lifecycle = tee.NewLifecycle(tee.Platform{
		Kind:           tee.KindTDX,
		IDPrefix:       "td",
		NormalIDPrefix: "vm",
		Model:          b.CostModel(),
		NormalModel:    tee.NormalCostModel(),
		BootBase:       bootBaseNs,
		NewContext:     func() tee.Context { return &td{module: module} },
		Label:          string(tee.KindTDX) + "/" + opts.FirmwareVersion,
		Seed:           opts.Seed,
		Obs:            opts.Obs,
		Faults:         opts.Faults,
	})
	return b, nil
}

// Kind implements tee.Backend.
func (b *Backend) Kind() tee.Kind { return tee.KindTDX }

// Name implements tee.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("Intel TDX (%s) on %s", b.module.Info().Version, cpumodel.XeonGold5515.Name)
}

// HostProfile implements tee.Backend.
func (b *Backend) HostProfile() cpumodel.Profile { return cpumodel.XeonGold5515 }

// Module exposes the simulated TDX module, used by the DCAP
// attestation stack to locally verify TDREPORT MACs.
func (b *Backend) Module() *Module { return b.module }

// CostModel returns the confidential-guest cost model for the loaded
// firmware. Calibration targets the paper's shapes: near-native CPU
// and memory (slight edge over SEV-SNP), expensive I/O through swiotlb
// bounce buffers, and ~7 µs TDCALL/SEAMCALL round trips. Every factor
// is at least 1, so no noise-free charge falls below the normal VM's.
func (b *Backend) CostModel() tee.CostModel {
	cm := tee.CostModel{
		CPUFactor:      1.015,
		MemFactor:      1.10,
		AllocFactor:    1.12,
		IOReadFactor:   2.05,
		IOWriteFactor:  2.30,
		NetFactor:      1.90,
		LogFactor:      1.35,
		FileOpFactor:   1.50,
		CtxSwitchFac:   1.40,
		SpawnFactor:    1.35,
		SyscallFactor:  1.05,
		ExitNs:         7000,
		ExitsPerSys:    0.004,
		ExitsPerSwitch: 0.45,
		PageAcceptNs:   350,
		StartupNs:      850e6,
		JitterStd:      0.020,
		// Restores rebuild the TD context and replay page ownership
		// without re-measuring: a fixed SEAM-side import base plus a
		// cheap per-page charge, orders of magnitude under the
		// measured build.
		SnapshotPageNs: 0.40e6,
		RestoreBaseNs:  120e6,
		RestorePageNs:  0.10e6,
	}
	if b.module.Info().Version == BuggyFirmware {
		cm = firmwarePenalty(cm, 10)
	}
	return cm
}

// firmwarePenalty scales the multiplicative factors and transition
// latency by f, reproducing the pre-upgrade slowdown.
func firmwarePenalty(cm tee.CostModel, f float64) tee.CostModel {
	cm.CPUFactor *= f
	cm.MemFactor *= f
	cm.AllocFactor *= f
	cm.IOReadFactor *= f
	cm.IOWriteFactor *= f
	cm.NetFactor *= f
	cm.LogFactor *= f
	cm.FileOpFactor *= f
	cm.CtxSwitchFac *= f
	cm.SpawnFactor *= f
	cm.ExitNs *= f
	return cm
}

// bootBaseNs is the plain-VM boot cost on this host class.
const bootBaseNs = 2.1e9

// tdState is the serialized form of a TD: the attested identity minus
// the MRTD (which travels in the image's Measurement field, where the
// destination's attestation gate verifies it) plus the private page
// set as page frame numbers. A measured build lists them in ascending
// order, so the same TD always serializes to the same bytes — the
// migration smoke pins on that.
type tdState struct {
	Attributes uint64   `json:"attributes"`
	Xfam       uint64   `json:"xfam"`
	Pages      []uint64 `json:"pages"`
}

// PageCount implements tee.State.
func (s *tdState) PageCount() int { return len(s.Pages) }

// maxPFN is the first page frame number past the 52-bit guest-physical
// address space.
const maxPFN = 1 << 52 / PageSize

// td is one trust domain as the shared lifecycle drives it.
type td struct {
	module *Module
	id     uint64 // 0 until the module has created the TD
	st     tdState
}

var _ tee.Context = (*td)(nil)

// State implements tee.Context.
func (t *td) State() tee.State { return &t.st }

// Build implements tee.Context: TDH.MNG.CREATE → INIT → measured page
// adds → TDH.MR.FINALIZE → TDH.VP.ENTER.
func (t *td) Build(cfg tee.GuestConfig) error {
	id, err := t.module.TDHMngCreate()
	if err != nil {
		return err
	}
	t.id = id
	t.st.Attributes, t.st.Xfam = 0x0000_0000_1000_0000, 0xe7
	if err := t.module.TDHMngInit(id, t.st.Attributes, t.st.Xfam); err != nil {
		return err
	}
	// Measure a boot image: one page per MiB of guest memory stands in
	// for the kernel+initrd pages added via TDH.MEM.PAGE.ADD.
	for i := 0; i < cfg.MemoryMB; i++ {
		pfn := uint64(i)
		content := []byte(fmt.Sprintf("boot-image:%s:%d", cfg.Name, i))
		if err := t.module.TDHMemPageAdd(id, pfn*PageSize, content); err != nil {
			return err
		}
		t.st.Pages = append(t.st.Pages, pfn)
	}
	if err := t.module.TDHMrFinalize(id); err != nil {
		return err
	}
	return t.module.TDHVPEnter(id)
}

// Import implements tee.Context: TDH.IMPORT.MEM installs the sealed
// MRTD and the page set with re-measurement skipped, and the imported
// TD is entered. TDH.IMPORT.MEM takes the page list as given, so the
// pages TDH.MEM.PAGE.ADD would have refused are refused here: the list
// must be strictly ascending, the order a measured build produces
// (which rules out a frame listed twice), and stay inside the
// guest-physical address space.
func (t *td) Import(mrtd tee.Measurement) error {
	for i, pfn := range t.st.Pages {
		if pfn >= maxPFN {
			return fmt.Errorf("%w: page frame %#x outside the guest-physical space", tee.ErrBadMigrationState, pfn)
		}
		if i > 0 && pfn <= t.st.Pages[i-1] {
			return fmt.Errorf("%w: page frame %#x repeated or out of order", tee.ErrBadMigrationState, pfn)
		}
	}
	id, err := t.module.TDHImportMem(&TDImage{
		Attributes: t.st.Attributes, Xfam: t.st.Xfam, MRTD: mrtd, Pages: t.st.Pages,
	})
	if err != nil {
		return err
	}
	t.id = id
	return t.module.TDHVPEnter(id)
}

// Measurement implements tee.Context: TDH.EXPORT.MEM on the running TD
// (the TDX 1.5 migration-TD stream source) reads the MRTD back. Export
// does not change the TD's state.
func (t *td) Measurement() (tee.Measurement, error) {
	img, err := t.module.TDHExportMem(t.id)
	if err != nil {
		return tee.Measurement{}, err
	}
	return img.MRTD, nil
}

// Report implements tee.Context: a MAC'd TDREPORT via TDG.MR.REPORT.
func (t *td) Report(_ context.Context, nonce []byte) ([]byte, error) {
	r, err := t.module.TDGMrReport(t.id, nonce)
	if err != nil {
		return nil, err
	}
	return r.Marshal()
}

// Teardown implements tee.Context.
func (t *td) Teardown() error {
	if t.id == 0 {
		return nil
	}
	return t.module.TDHMngRemove(t.id)
}
