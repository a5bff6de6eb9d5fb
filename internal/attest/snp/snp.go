// Package snp implements the SEV-SNP attestation flow ConfBench uses,
// mirroring the snpguest-based setup of §IV-C: the guest requests an
// attestation report from the AMD Secure Processor firmware, and the
// verifier validates it in three steps — certificate chain (VCEK →
// ASK → ARK), report signature, and policy/TCB checks. Unlike the TDX
// DCAP flow, the certificates come "from the underlying hardware"
// rather than over the network, which is why both phases are faster
// in the paper's Fig. 5.
package snp

import (
	"bytes"
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha512"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"math/big"
	"time"

	"confbench/internal/attest"
	"confbench/internal/cpumodel"
	"confbench/internal/tee"
	"confbench/internal/tee/sev"
)

// host is the machine both sides of the flow run on: the SEV-SNP test
// bed of §IV-A. The attester's work is priced in its guest on top of
// it, the verifier's on it directly.
var host = cpumodel.EPYC9124

// reportSignedSize is how many bytes of a report the VCEK signature
// covers: offsets 0x000–0x29F of the ATTESTATION_REPORT structure of
// the SEV-SNP firmware ABI. The metered hash reads this size, not the
// length of this reproduction's JSON encoding.
const reportSignedSize = 0x2A0

// Attester implements attest.Attester for an SEV-SNP guest: the
// evidence is the VCEK-signed report produced by the AMD-SP.
type Attester struct {
	guest tee.Guest
	// FirmwareLatency models the /dev/sev-guest request/response
	// round trip through the AMD-SP mailbox.
	FirmwareLatency time.Duration
}

var _ attest.Attester = (*Attester)(nil)

// NewAttester wraps an SNP guest.
func NewAttester(guest tee.Guest) *Attester {
	return &Attester{guest: guest, FirmwareLatency: 22 * time.Millisecond}
}

// Execute implements attest.Attester: the AMD-SP hashes the report
// and signs it with the VCEK (ECDSA P-384 over SHA-384).
func (a *Attester) Execute(ctx context.Context, nonce []byte) (attest.Evidence, attest.Usage, error) {
	return attest.Metered(func(u *attest.Usage) (attest.Evidence, error) {
		data, err := a.guest.AttestationReport(ctx, nonce)
		if err != nil {
			return attest.Evidence{}, err
		}
		u.Hash(crypto.SHA384, reportSignedSize)
		u.Sign(elliptic.P384())
		u.Infra = a.FirmwareLatency
		return attest.Evidence{Platform: tee.KindSEV, Data: data}, nil
	})
}

// Price implements attest.Attester.
func (a *Attester) Price(u attest.Usage, key tee.Key) attest.Timing {
	return attest.PriceOnGuest(a.guest, host, u, key)
}

// Attest implements attest.Attester.
func (a *Attester) Attest(ctx context.Context, nonce []byte) (attest.Evidence, attest.Timing, error) {
	ev, u, err := a.Execute(ctx, nonce)
	if err != nil {
		return attest.Evidence{}, attest.Timing{}, err
	}
	return ev, a.Price(u, attest.NonceKey(nonce)), nil
}

// Verifier validates SNP reports against an AMD-SP certificate chain.
type Verifier struct {
	chain sev.CertChain
	// MinTCB is the verifier's minimum acceptable platform TCB.
	MinTCB sev.TCBVersion
	// ExpectedMeasurement, when non-empty, pins the launch digest
	// (hex-encoded): reports measuring a different guest image are
	// rejected.
	ExpectedMeasurement string
	// HardwareFetchLatency models reading the cert chain from the
	// AMD-SP (a local operation, milliseconds not hundreds of them).
	HardwareFetchLatency time.Duration
}

var _ attest.Verifier = (*Verifier)(nil)

// NewVerifier builds a verifier trusting the given hardware chain.
func NewVerifier(chain sev.CertChain) *Verifier {
	return &Verifier{
		chain:                chain,
		MinTCB:               sev.TCBVersion{Bootloader: 3, SNPFw: 20, Microcode: 200},
		HardwareFetchLatency: 3 * time.Millisecond,
	}
}

// Execute implements attest.Verifier for SNP evidence. The chain
// comes from local hardware, so ctx is only checked at entry (no
// network).
func (v *Verifier) Execute(ctx context.Context, ev attest.Evidence, nonce []byte) (*attest.Verdict, attest.Usage, error) {
	return attest.Metered(func(u *attest.Usage) (*attest.Verdict, error) { return v.check(ctx, ev, nonce, u) })
}

// Price implements attest.Verifier; key is unused, the price is
// noise-free.
func (v *Verifier) Price(u attest.Usage, _ tee.Key) attest.Timing { return attest.PriceOnHost(host, u) }

// Verify implements attest.Verifier.
func (v *Verifier) Verify(ctx context.Context, ev attest.Evidence, nonce []byte) (*attest.Verdict, attest.Timing, error) {
	verdict, u, err := v.Execute(ctx, ev, nonce)
	if err != nil {
		return nil, attest.Timing{}, err
	}
	return verdict, v.Price(u, attest.NonceKey(nonce)), nil
}

// check validates ev against nonce, metering its work into u.
func (v *Verifier) check(ctx context.Context, ev attest.Evidence, nonce []byte, u *attest.Usage) (*attest.Verdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ev.Platform != tee.KindSEV {
		return nil, fmt.Errorf("snp: evidence platform %q, want %q", ev.Platform, tee.KindSEV)
	}
	report, err := sev.UnmarshalReport(ev.Data)
	if err != nil {
		return nil, err
	}

	// Step 1: read the VCEK → ASK → ARK certificate chain from the
	// AMD-SP and verify it: two P-384 signatures, the ARK is the root.
	u.Infra = v.HardwareFetchLatency
	vcekCert, err := x509.ParseCertificate(v.chain.VCEK)
	if err != nil {
		return nil, fmt.Errorf("snp: parse VCEK: %w", err)
	}
	askCert, err := x509.ParseCertificate(v.chain.ASK)
	if err != nil {
		return nil, fmt.Errorf("snp: parse ASK: %w", err)
	}
	arkCert, err := x509.ParseCertificate(v.chain.ARK)
	if err != nil {
		return nil, fmt.Errorf("snp: parse ARK: %w", err)
	}
	u.ParseCerts(3)
	roots := x509.NewCertPool()
	roots.AddCert(arkCert)
	inter := x509.NewCertPool()
	inter.AddCert(askCert)
	if _, err := vcekCert.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: inter,
		CurrentTime:   vcekCert.NotBefore.Add(time.Hour),
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("%w: VCEK chain: %v", attest.ErrVerification, err)
	}
	u.VerifySignature(elliptic.P384())
	u.VerifySignature(elliptic.P384())

	// Step 2: verify the report signature with the VCEK public key.
	pub, ok := vcekCert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: VCEK key is not ECDSA", attest.ErrVerification)
	}
	digest := sha512.Sum384(report.SignedBytes())
	r := new(big.Int).SetBytes(report.SignatureR)
	s := new(big.Int).SetBytes(report.SignatureS)
	if !ecdsa.Verify(pub, digest[:], r, s) {
		return nil, fmt.Errorf("%w: report signature", attest.ErrVerification)
	}
	u.Hash(crypto.SHA384, reportSignedSize)
	u.VerifySignature(elliptic.P384())

	// Step 3: policy checks — nonce binding and TCB floor.
	var want [sev.ReportDataSize]byte
	copy(want[:], nonce)
	if !bytes.Equal(report.ReportData[:], want[:]) {
		return nil, attest.ErrNonceMismatch
	}
	if v.ExpectedMeasurement != "" && hex.EncodeToString(report.Measurement[:]) != v.ExpectedMeasurement {
		return nil, fmt.Errorf("%w: launch digest does not match pinned measurement", attest.ErrVerification)
	}
	if !tcbAtLeast(report.ReportedTCB, v.MinTCB) {
		return nil, fmt.Errorf("%w: reported %+v below minimum %+v",
			attest.ErrTCBOutOfDate, report.ReportedTCB, v.MinTCB)
	}

	verdict := &attest.Verdict{
		OK:          true,
		Platform:    tee.KindSEV,
		Measurement: hex.EncodeToString(report.Measurement[:]),
		TCBStatus:   "UpToDate",
		Details: []string{
			"vcek chain verified to ARK",
			"report signature valid",
			fmt.Sprintf("policy %#x, vmpl %d", report.Policy, report.VMPL),
		},
	}
	return verdict, nil
}

// tcbAtLeast reports whether got meets the min floor component-wise.
func tcbAtLeast(got, min sev.TCBVersion) bool {
	return got.Bootloader >= min.Bootloader &&
		got.TEE >= min.TEE &&
		got.SNPFw >= min.SNPFw &&
		got.Microcode >= min.Microcode
}
