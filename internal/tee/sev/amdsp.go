package sev

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// AMD-SP errors.
var (
	ErrGuestNotLaunched = errors.New("sev: guest not launched on AMD-SP")
	ErrLaunchFinished   = errors.New("sev: launch already finished")
	ErrLaunchNotDone    = errors.New("sev: launch not finished")
	ErrReportData       = errors.New("sev: report data must be at most 64 bytes")
)

// ReportDataSize is the guest-supplied data field size in a report.
const ReportDataSize = 64

// MeasurementSize is the launch-digest length (SHA-384).
const MeasurementSize = sha512.Size384

// TCBVersion captures the platform TCB component versions reported
// and signed by the firmware.
type TCBVersion struct {
	Bootloader uint8 `json:"bootloader"`
	TEE        uint8 `json:"tee"`
	SNPFw      uint8 `json:"snp_fw"`
	Microcode  uint8 `json:"microcode"`
}

// Encode packs the TCB into the uint64 wire form used by chips.
func (t TCBVersion) Encode() uint64 {
	var b [8]byte
	b[0] = t.Bootloader
	b[1] = t.TEE
	b[6] = t.SNPFw
	b[7] = t.Microcode
	return binary.LittleEndian.Uint64(b[:])
}

// Report is the SNP attestation report returned by the firmware. It
// is signed with the chip's VCEK (ECDSA P-384 over SHA-384), and the
// VCEK is certified by the ASK/ARK chain that verifiers retrieve from
// the hardware (unlike TDX, no network round trip is needed — the
// paper's Fig. 5 shows this as faster "attest" and "check" phases).
type Report struct {
	Version     uint32                `json:"version"`
	GuestSVN    uint32                `json:"guest_svn"`
	Policy      uint64                `json:"policy"`
	Measurement [MeasurementSize]byte `json:"measurement"`
	HostData    [32]byte              `json:"host_data"`
	ReportData  [ReportDataSize]byte  `json:"report_data"`
	ChipID      [64]byte              `json:"chip_id"`
	CurrentTCB  TCBVersion            `json:"current_tcb"`
	ReportedTCB TCBVersion            `json:"reported_tcb"`
	VMPL        uint32                `json:"vmpl"`
	SignatureR  []byte                `json:"sig_r"`
	SignatureS  []byte                `json:"sig_s"`
}

// SignedBytes returns the byte string covered by the VCEK signature.
func (r *Report) SignedBytes() []byte {
	c := *r
	c.SignatureR, c.SignatureS = nil, nil
	b, err := json.Marshal(&c)
	if err != nil {
		// Marshaling a plain struct of fixed types cannot fail; guard
		// anyway so the signature never silently covers nothing.
		panic(fmt.Sprintf("sev: marshal report: %v", err))
	}
	return b
}

// Marshal serializes the report for transport.
func (r *Report) Marshal() ([]byte, error) { return json.Marshal(r) }

// UnmarshalReport parses a serialized SNP report.
func UnmarshalReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("sev: parse report: %w", err)
	}
	return &r, nil
}

// CertChain carries the DER-encoded VCEK → ASK → ARK certificates a
// verifier needs. On real hardware these come from the AMD-SP / AMD
// KDS; here the coprocessor hands them out directly.
type CertChain struct {
	VCEK []byte `json:"vcek"`
	ASK  []byte `json:"ask"`
	ARK  []byte `json:"ark"`
}

type launchCtx struct {
	asid     uint32
	policy   uint64
	digest   [MeasurementSize]byte
	finished bool
}

// AMDSP simulates the AMD Secure Processor: the dedicated coprocessor
// that owns the chip endorsement keys, measures guest launches, and
// signs attestation reports.
type AMDSP struct {
	mu      sync.Mutex
	chipID  [64]byte
	tcb     TCBVersion
	arkKey  *ecdsa.PrivateKey
	askKey  *ecdsa.PrivateKey
	vcekKey *ecdsa.PrivateKey
	chain   CertChain
	guests  map[uint32]*launchCtx
}

// NewAMDSP provisions a secure processor with a fresh ARK/ASK/VCEK
// ECDSA P-384 hierarchy (real keys, real X.509 certificates).
func NewAMDSP(seed int64) (*AMDSP, error) {
	sp := &AMDSP{
		tcb:    TCBVersion{Bootloader: 4, TEE: 0, SNPFw: 21, Microcode: 209},
		guests: make(map[uint32]*launchCtx, 4),
	}
	var seedBytes [8]byte
	binary.LittleEndian.PutUint64(seedBytes[:], uint64(seed))
	chip := sha512.Sum512(append([]byte("amd-chip-id:"), seedBytes[:]...))
	copy(sp.chipID[:], chip[:])

	var err error
	if sp.arkKey, err = ecdsa.GenerateKey(elliptic.P384(), rand.Reader); err != nil {
		return nil, fmt.Errorf("sev: generate ARK: %w", err)
	}
	if sp.askKey, err = ecdsa.GenerateKey(elliptic.P384(), rand.Reader); err != nil {
		return nil, fmt.Errorf("sev: generate ASK: %w", err)
	}
	if sp.vcekKey, err = ecdsa.GenerateKey(elliptic.P384(), rand.Reader); err != nil {
		return nil, fmt.Errorf("sev: generate VCEK: %w", err)
	}
	if err := sp.buildChain(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *AMDSP) buildChain() error {
	notBefore := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	notAfter := notBefore.AddDate(25, 0, 0)

	arkTpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ARK-Genoa", Organization: []string{"Advanced Micro Devices (simulated)"}},
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	arkDER, err := x509.CreateCertificate(rand.Reader, arkTpl, arkTpl, &sp.arkKey.PublicKey, sp.arkKey)
	if err != nil {
		return fmt.Errorf("sev: create ARK cert: %w", err)
	}
	arkCert, err := x509.ParseCertificate(arkDER)
	if err != nil {
		return fmt.Errorf("sev: parse ARK cert: %w", err)
	}

	askTpl := &x509.Certificate{
		SerialNumber:          big.NewInt(2),
		Subject:               pkix.Name{CommonName: "SEV-Genoa (ASK)", Organization: []string{"Advanced Micro Devices (simulated)"}},
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	askDER, err := x509.CreateCertificate(rand.Reader, askTpl, arkCert, &sp.askKey.PublicKey, sp.arkKey)
	if err != nil {
		return fmt.Errorf("sev: create ASK cert: %w", err)
	}
	askCert, err := x509.ParseCertificate(askDER)
	if err != nil {
		return fmt.Errorf("sev: parse ASK cert: %w", err)
	}

	vcekTpl := &x509.Certificate{
		SerialNumber: big.NewInt(3),
		Subject:      pkix.Name{CommonName: "SEV-VCEK", Organization: []string{"Advanced Micro Devices (simulated)"}},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	vcekDER, err := x509.CreateCertificate(rand.Reader, vcekTpl, askCert, &sp.vcekKey.PublicKey, sp.askKey)
	if err != nil {
		return fmt.Errorf("sev: create VCEK cert: %w", err)
	}

	sp.chain = CertChain{VCEK: vcekDER, ASK: askDER, ARK: arkDER}
	return nil
}

// CertChainCopy returns the DER certificate chain (VCEK, ASK, ARK).
func (sp *AMDSP) CertChainCopy() CertChain {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	c := CertChain{
		VCEK: append([]byte(nil), sp.chain.VCEK...),
		ASK:  append([]byte(nil), sp.chain.ASK...),
		ARK:  append([]byte(nil), sp.chain.ARK...),
	}
	return c
}

// LaunchStart opens a launch context for the guest with asid and
// policy (SNP_LAUNCH_START).
func (sp *AMDSP) LaunchStart(asid uint32, policy uint64) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.guests[asid]; ok {
		return fmt.Errorf("sev: ASID %d already launching", asid)
	}
	sp.guests[asid] = &launchCtx{asid: asid, policy: policy}
	return nil
}

// LaunchUpdate measures data into the guest's launch digest
// (SNP_LAUNCH_UPDATE): digest = SHA384(digest || SHA384(data)).
func (sp *AMDSP) LaunchUpdate(asid uint32, data []byte) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ctx, ok := sp.guests[asid]
	if !ok {
		return ErrGuestNotLaunched
	}
	if ctx.finished {
		return ErrLaunchFinished
	}
	h := sha512.New384()
	h.Write(ctx.digest[:])
	d := sha512.Sum384(data)
	h.Write(d[:])
	copy(ctx.digest[:], h.Sum(nil))
	return nil
}

// LaunchImport installs a previously captured launch digest for asid
// in one firmware call, skipping the per-page LAUNCH_UPDATE hashing
// (modeled on the SNP migration-agent import path). The guest comes up
// already finished, so attestation reports carry the imported
// measurement.
func (sp *AMDSP) LaunchImport(asid uint32, policy uint64, digest [MeasurementSize]byte) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.guests[asid]; ok {
		return fmt.Errorf("sev: ASID %d already launching", asid)
	}
	sp.guests[asid] = &launchCtx{asid: asid, policy: policy, digest: digest, finished: true}
	return nil
}

// LaunchFinish seals the launch digest (SNP_LAUNCH_FINISH).
func (sp *AMDSP) LaunchFinish(asid uint32) ([MeasurementSize]byte, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ctx, ok := sp.guests[asid]
	if !ok {
		return [MeasurementSize]byte{}, ErrGuestNotLaunched
	}
	if ctx.finished {
		return [MeasurementSize]byte{}, ErrLaunchFinished
	}
	ctx.finished = true
	return ctx.digest, nil
}

// GuestRequestReport produces a VCEK-signed attestation report for a
// finished guest (MSG_REPORT_REQ through /dev/sev-guest).
func (sp *AMDSP) GuestRequestReport(asid uint32, vmpl uint32, reportData []byte) (*Report, error) {
	if len(reportData) > ReportDataSize {
		return nil, ErrReportData
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ctx, ok := sp.guests[asid]
	if !ok {
		return nil, ErrGuestNotLaunched
	}
	if !ctx.finished {
		return nil, ErrLaunchNotDone
	}
	r := &Report{
		Version:     2,
		GuestSVN:    1,
		Policy:      ctx.policy,
		Measurement: ctx.digest,
		ChipID:      sp.chipID,
		CurrentTCB:  sp.tcb,
		ReportedTCB: sp.tcb,
		VMPL:        vmpl,
	}
	copy(r.ReportData[:], reportData)

	digest := sha512.Sum384(r.SignedBytes())
	sigR, sigS, err := ecdsa.Sign(rand.Reader, sp.vcekKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sev: sign report: %w", err)
	}
	r.SignatureR = sigR.Bytes()
	r.SignatureS = sigS.Bytes()
	return r, nil
}

// Decommission removes the launch context for asid.
func (sp *AMDSP) Decommission(asid uint32) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	delete(sp.guests, asid)
}
