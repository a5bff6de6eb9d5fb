// Package tdx simulates Intel Trust Domain Extensions (TDX) for
// ConfBench.
//
// The package models the TDX software architecture described in §II of
// the paper: the TDX Module living in reserved (SEAM) memory, which
// the hypervisor drives through SEAMCALL leaf functions and trust
// domains (TDs) reach through TDCALL. The module owns the TD lifecycle
// state machine (create → init → memory add → finalize → run), keeps
// the MRTD build-time measurement, and emits MAC'd TDREPORT structures
// that the DCAP attestation stack (internal/attest/dcap) turns into
// quotes; no runtime leaf extends the RTMRs, so a report carries them
// zeroed.
//
// The performance side — memory encryption and integrity, bounce
// buffers for I/O, TDCALL/SEAMCALL transition latencies — is expressed
// as a tee.CostModel in backend.go.
package tdx

import (
	"crypto/hmac"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"confbench/internal/obs"
)

// Lifecycle errors returned by the module.
var (
	ErrTDNotFound     = errors.New("tdx: no such trust domain")
	ErrBadState       = errors.New("tdx: operation illegal in current TD state")
	ErrPageAdded      = errors.New("tdx: page already added at GPA")
	ErrNotFinalized   = errors.New("tdx: TD measurement not finalized")
	ErrReportDataSize = errors.New("tdx: report data must be at most 64 bytes")
)

// TDState is the lifecycle state of a trust domain.
type TDState int

// TD lifecycle states, in order.
const (
	TDCreated TDState = iota + 1
	TDInitialized
	TDMemAdding
	TDFinalized
	TDRunning
)

// String names the state.
func (s TDState) String() string {
	switch s {
	case TDCreated:
		return "created"
	case TDInitialized:
		return "initialized"
	case TDMemAdding:
		return "mem-adding"
	case TDFinalized:
		return "finalized"
	case TDRunning:
		return "running"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// PageSize is the TD private page granularity.
const PageSize = 4096

// MeasurementSize is the byte length of SHA-384 measurements.
const MeasurementSize = sha512.Size384

// NumRTMRs is the number of runtime measurement registers per TD.
const NumRTMRs = 4

// TD is one trust domain managed by the module.
type TD struct {
	id    uint64
	state TDState

	attributes uint64
	xfam       uint64

	// mrtd is the build-time measurement, extended by each added page.
	mrtd [MeasurementSize]byte
	// pages maps guest-physical page numbers to acceptance.
	pages map[uint64]bool
}

// ModuleInfo describes the loaded TDX module.
type ModuleInfo struct {
	// Version is the module version string, e.g. "TDX_1.5.05.46.698".
	Version string
}

// Module simulates the Intel TDX Module. It runs conceptually in SEAM
// root mode; the hypervisor reaches it via SEAMCALL-style methods and
// guests via TDCALL-style methods. All methods are safe for concurrent
// use.
type Module struct {
	mu   sync.Mutex
	info ModuleInfo
	// macKey stands in for the CPU-held key that MACs TDREPORTs.
	macKey []byte
	tds    map[uint64]*TD
	nextID uint64

	// calls counts SEAMCALL/TDCALL leaf invocations the module served.
	calls *obs.Counter
}

// CurrentFirmware is the fixed module version the paper's final
// experiments used, after the upgrade that removed a consistent ~10×
// overhead (§III-B).
const CurrentFirmware = "TDX_1.5.05.46.698"

// BuggyFirmware is the pre-upgrade module version exhibiting the ~10×
// runtime penalty the paper reports debugging.
const BuggyFirmware = "TDX_1.5.00.41.610"

// NewModule loads a simulated TDX module with the given version and a
// deterministic per-module MAC key derived from seed.
func NewModule(version string, seed int64) *Module {
	var seedBytes [8]byte
	binary.LittleEndian.PutUint64(seedBytes[:], uint64(seed))
	key := sha512.Sum384(append([]byte("tdx-module-mac-key:"+version+":"), seedBytes[:]...))
	return &Module{
		info:   ModuleInfo{Version: version},
		macKey: key[:],
		tds:    make(map[uint64]*TD, 4),
		nextID: 1,
		calls:  obs.Default().Counter("confbench_tee_module_calls_total", "tee", "tdx"),
	}
}

// SetObsRegistry points the module's call counter at reg instead of
// the process-wide default. Call before serving traffic.
func (m *Module) SetObsRegistry(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls = obs.OrDefault(reg).Counter("confbench_tee_module_calls_total", "tee", "tdx")
}

// Info returns the module description.
func (m *Module) Info() ModuleInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.info
}

func (m *Module) get(id uint64) (*TD, error) {
	m.calls.Inc()
	td, ok := m.tds[id]
	if !ok {
		return nil, ErrTDNotFound
	}
	return td, nil
}

// --- SEAMCALL leaves (hypervisor side) ---

// TDHMngCreate creates a new TD (SEAMCALL TDH.MNG.CREATE).
func (m *Module) TDHMngCreate() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	id := m.nextID
	m.nextID++
	m.tds[id] = &TD{
		id:    id,
		state: TDCreated,
		pages: make(map[uint64]bool, 64),
	}
	return id, nil
}

// TDHMngInit initializes TD attributes (SEAMCALL TDH.MNG.INIT). The
// attributes and XFAM become part of the attested identity.
func (m *Module) TDHMngInit(id, attributes, xfam uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.get(id)
	if err != nil {
		return err
	}
	if td.state != TDCreated {
		return fmt.Errorf("%w: init in %s", ErrBadState, td.state)
	}
	td.attributes = attributes
	td.xfam = xfam
	td.state = TDInitialized
	return nil
}

// TDHMemPageAdd adds one private page at guest-physical address gpa
// with the given content digest, extending MRTD (SEAMCALL
// TDH.MEM.PAGE.ADD). gpa must be page-aligned.
func (m *Module) TDHMemPageAdd(id, gpa uint64, content []byte) error {
	if gpa%PageSize != 0 {
		return fmt.Errorf("tdx: gpa %#x not page aligned", gpa)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.get(id)
	if err != nil {
		return err
	}
	if td.state != TDInitialized && td.state != TDMemAdding {
		return fmt.Errorf("%w: page add in %s", ErrBadState, td.state)
	}
	pfn := gpa / PageSize
	if td.pages[pfn] {
		return ErrPageAdded
	}
	td.pages[pfn] = true
	td.state = TDMemAdding

	// MRTD := SHA384(MRTD || "PAGE.ADD" || gpa || SHA384(content))
	h := sha512.New384()
	h.Write(td.mrtd[:])
	h.Write([]byte("TDH.MEM.PAGE.ADD"))
	var gpaBytes [8]byte
	binary.LittleEndian.PutUint64(gpaBytes[:], gpa)
	h.Write(gpaBytes[:])
	digest := sha512.Sum384(content)
	h.Write(digest[:])
	copy(td.mrtd[:], h.Sum(nil))
	return nil
}

// TDHMrFinalize seals the build-time measurement (SEAMCALL
// TDH.MR.FINALIZE). After this no pages can be measured into MRTD.
func (m *Module) TDHMrFinalize(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.get(id)
	if err != nil {
		return err
	}
	if td.state != TDMemAdding && td.state != TDInitialized {
		return fmt.Errorf("%w: finalize in %s", ErrBadState, td.state)
	}
	td.state = TDFinalized
	return nil
}

// TDHVPEnter enters the TD for execution (SEAMCALL TDH.VP.ENTER).
func (m *Module) TDHVPEnter(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.get(id)
	if err != nil {
		return err
	}
	switch td.state {
	case TDFinalized, TDRunning:
		td.state = TDRunning
		return nil
	default:
		return fmt.Errorf("%w: enter in %s (%v)", ErrBadState, td.state, ErrNotFinalized)
	}
}

// TDImage is an exported TD memory image: the attested identity
// (MRTD, attributes, XFAM) plus the private page set, captured after
// finalization. Importing it rebuilds an equivalent TD without
// replaying the measured page adds — the re-measurement skip that
// makes restored TDs cheap (modeled on the TDX 1.5 live-migration
// TDH.EXPORT.*/TDH.IMPORT.* leaf families).
type TDImage struct {
	Attributes uint64
	Xfam       uint64
	MRTD       [MeasurementSize]byte
	// Pages lists the guest-physical page frame numbers of the image.
	Pages []uint64
}

// TDHExportMem captures a finalized TD's memory image (SEAMCALL
// TDH.EXPORT.MEM, abridged). The source TD keeps running; the caller
// owns the returned image.
func (m *Module) TDHExportMem(id uint64) (*TDImage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.get(id)
	if err != nil {
		return nil, err
	}
	if td.state != TDFinalized && td.state != TDRunning {
		return nil, fmt.Errorf("%w: export in %s (%v)", ErrBadState, td.state, ErrNotFinalized)
	}
	img := &TDImage{
		Attributes: td.attributes,
		Xfam:       td.xfam,
		MRTD:       td.mrtd,
		Pages:      make([]uint64, 0, len(td.pages)),
	}
	for pfn := range td.pages {
		img.Pages = append(img.Pages, pfn)
	}
	return img, nil
}

// TDHImportMem rebuilds a TD from an exported image (SEAMCALL
// TDH.IMPORT.MEM, abridged): the TD is created directly in the
// finalized state with the imported MRTD, attributes, XFAM, and page
// set, skipping the per-page measured adds. The caller enters it with
// TDHVPEnter as usual.
func (m *Module) TDHImportMem(img *TDImage) (uint64, error) {
	if img == nil {
		return 0, errors.New("tdx: nil TD image")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	id := m.nextID
	m.nextID++
	td := &TD{
		id:         id,
		state:      TDFinalized,
		attributes: img.Attributes,
		xfam:       img.Xfam,
		mrtd:       img.MRTD,
		pages:      make(map[uint64]bool, len(img.Pages)),
	}
	for _, pfn := range img.Pages {
		td.pages[pfn] = true
	}
	m.tds[id] = td
	return id, nil
}

// TDHMngRemove tears the TD down and reclaims its pages.
func (m *Module) TDHMngRemove(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.get(id); err != nil {
		return err
	}
	delete(m.tds, id)
	return nil
}

// --- TDCALL leaves (guest side) ---

// TDGMrReport produces a MAC'd TDREPORT binding reportData (≤64 bytes)
// to the TD's measurements (TDCALL TDG.MR.REPORT). Only a running,
// finalized TD can report.
func (m *Module) TDGMrReport(id uint64, reportData []byte) (*Report, error) {
	if len(reportData) > ReportDataSize {
		return nil, ErrReportDataSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.get(id)
	if err != nil {
		return nil, err
	}
	if td.state != TDRunning && td.state != TDFinalized {
		return nil, fmt.Errorf("%w: report in %s", ErrBadState, td.state)
	}

	r := &Report{
		ModuleVersion: m.info.Version,
		TeeTcbSvn:     tcbSvnForVersion(m.info.Version),
		Attributes:    td.attributes,
		Xfam:          td.xfam,
		MRTD:          td.mrtd,
	}
	copy(r.ReportData[:], reportData)
	r.MAC = m.macReport(r)
	return r, nil
}

// VerifyReportMAC checks that the report was produced by this module
// (local attestation: the MAC key never leaves the "CPU").
func (m *Module) VerifyReportMAC(r *Report) bool {
	if r == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	want := m.macReport(r)
	return hmac.Equal(want[:], r.MAC[:])
}

func (m *Module) macReport(r *Report) [MeasurementSize]byte {
	mac := hmac.New(sha512.New384, m.macKey)
	mac.Write(r.bindingBytes())
	var out [MeasurementSize]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// tcbSvnForVersion derives a monotone TCB security-version number from
// the module version string, so firmware upgrades raise the SVN.
func tcbSvnForVersion(version string) uint32 {
	switch version {
	case CurrentFirmware:
		return 5
	case BuggyFirmware:
		return 4
	default:
		return 3
	}
}
