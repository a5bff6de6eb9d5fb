package dcap

import (
	"bytes"
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"time"

	"confbench/internal/attest"
	"confbench/internal/tee"
)

// Verifier validates TDX quotes following the DCAP quote verification
// flow used by go-tdx-guest: it retrieves TCB information, the PCK
// CRL, and the QE identity from the Intel PCS **by making network
// requests** on every check (unless collateral caching is enabled),
// then verifies the certificate chain, the quote signature, the nonce
// binding, and the TCB level.
type Verifier struct {
	pcs *PCS

	// CacheCollateral re-uses fetched collateral across Verify calls,
	// removing the network term from "check" (an ablation knob; the
	// paper's measured flow fetches every time).
	CacheCollateral bool

	// ExpectedMRTD, when non-empty, pins the TD's build-time
	// measurement: evidence whose MRTD differs (hex-encoded) is
	// rejected. This is how a relying party binds "the genuine code is
	// being executed" (§II) to a known-good TD image.
	ExpectedMRTD string

	cachedTCB *TCBInfo
	cachedCRL *CRL
	cachedQE  *QEIdentity
}

var _ attest.Verifier = (*Verifier)(nil)

// NewVerifier builds a verifier that trusts pcs for collateral.
func NewVerifier(pcs *PCS) *Verifier {
	return &Verifier{pcs: pcs}
}

// Execute implements attest.Verifier for TDX evidence.
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
	if ev.Platform != tee.KindTDX {
		return nil, fmt.Errorf("dcap: evidence platform %q, want %q", ev.Platform, tee.KindTDX)
	}
	quote, err := UnmarshalQuote(ev.Data)
	if err != nil {
		return nil, err
	}

	// 1. Retrieve collateral (TCB info, PCK CRL, QE identity).
	tcb, crl, qeid, err := v.collateral(ctx, u)
	if err != nil {
		return nil, err
	}

	// 2. Verify the PCK certificate chain up to the platform root.
	pckCert, err := x509.ParseCertificate(quote.PCKCert)
	if err != nil {
		return nil, fmt.Errorf("dcap: parse PCK cert: %w", err)
	}
	rootCert, err := x509.ParseCertificate(quote.RootCert)
	if err != nil {
		return nil, fmt.Errorf("dcap: parse root cert: %w", err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(rootCert)
	if _, err := pckCert.Verify(x509.VerifyOptions{
		Roots:       roots,
		CurrentTime: pckCert.NotBefore.Add(time.Hour),
		KeyUsages:   []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("%w: PCK chain: %v", attest.ErrVerification, err)
	}
	u.ParseCerts(2)
	u.VerifySignature(elliptic.P256())

	// 3. Check the PCK certificate against the CRL.
	if crl.Contains(pckCert.SerialNumber.String()) {
		return nil, fmt.Errorf("%w: PCK serial %s", attest.ErrRevoked, pckCert.SerialNumber)
	}

	// 4. Check the QE identity.
	if quote.QEIdentity.MrSigner != qeid.MrSigner || quote.QEIdentity.ISVSVN < qeid.ISVSVN {
		return nil, fmt.Errorf("%w: QE identity mismatch", attest.ErrVerification)
	}

	// 5. Verify the quote signature with the PCK-certified key.
	pub, ok := pckCert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: PCK key is not ECDSA", attest.ErrVerification)
	}
	body, err := quote.SignedBytes()
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(body)
	if !ecdsa.VerifyASN1(pub, digest[:], quote.Signature) {
		return nil, fmt.Errorf("%w: quote signature", attest.ErrVerification)
	}
	u.Hash(crypto.SHA256, quoteSignedSize)
	u.VerifySignature(elliptic.P256())

	// 6. Check the nonce binding in ReportData.
	var want [64]byte
	copy(want[:], nonce)
	if !bytes.Equal(quote.Report.ReportData[:], want[:]) {
		return nil, attest.ErrNonceMismatch
	}

	// 7. Enforce the measurement policy, when pinned.
	if v.ExpectedMRTD != "" && hex.EncodeToString(quote.Report.MRTD[:]) != v.ExpectedMRTD {
		return nil, fmt.Errorf("%w: MRTD does not match pinned measurement", attest.ErrVerification)
	}

	// 8. Evaluate the platform TCB level.
	status := tcb.StatusFor(quote.Report.TeeTcbSvn)
	if status != TCBUpToDate {
		return nil, fmt.Errorf("%w: status %s for SVN %d",
			attest.ErrTCBOutOfDate, status, quote.Report.TeeTcbSvn)
	}

	verdict := &attest.Verdict{
		OK:          true,
		Platform:    tee.KindTDX,
		Measurement: hex.EncodeToString(quote.Report.MRTD[:]),
		TCBStatus:   status,
		Details: []string{
			"pck chain verified to platform root",
			"pck serial not on CRL",
			"qe identity matched",
			fmt.Sprintf("module %s", quote.Report.ModuleVersion),
		},
	}
	return verdict, nil
}

// collateral fetches (or returns cached) TCB info, CRL and QE
// identity, metering each fetch into u: its modeled network latency
// and the work of authenticating and decoding it. The ctx bounds each
// of the three PCS round trips.
func (v *Verifier) collateral(ctx context.Context, u *attest.Usage) (*TCBInfo, *CRL, *QEIdentity, error) {
	if v.CacheCollateral && v.cachedTCB != nil {
		return v.cachedTCB, v.cachedCRL, v.cachedQE, nil
	}
	var (
		tcb  TCBInfo
		crl  CRL
		qeid QEIdentity
	)
	if err := v.pcs.FetchCollateral(ctx, PathTCBInfo, &tcb, u); err != nil {
		return nil, nil, nil, err
	}
	if err := v.pcs.FetchCollateral(ctx, PathPCKCRL, &crl, u); err != nil {
		return nil, nil, nil, err
	}
	if err := v.pcs.FetchCollateral(ctx, PathQEIdentity, &qeid, u); err != nil {
		return nil, nil, nil, err
	}
	if v.CacheCollateral {
		v.cachedTCB, v.cachedCRL, v.cachedQE = &tcb, &crl, &qeid
	}
	return &tcb, &crl, &qeid, nil
}
