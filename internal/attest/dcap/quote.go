package dcap

import (
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"time"

	"confbench/internal/attest"
	"confbench/internal/cpumodel"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
)

// host is the machine both sides of the flow run on: the TDX test bed
// of §IV-A. The attester's work is priced in its TD on top of it, the
// verifier's on it directly.
var host = cpumodel.XeonGold5515

// Sizes the metered hashes read, from the hardware's layouts rather
// than from this reproduction's JSON encoding (whose certificates and
// signatures change length with every key):
const (
	// tdReportMACSize is the REPORTMACSTRUCT of a TDREPORT, which the
	// TDX module MACs (HMAC-SHA-384) and the QE checks.
	tdReportMACSize = 256
	// quoteSignedSize is what the attestation key signs in a v4 quote:
	// the 48-byte header and the 584-byte TD quote body.
	quoteSignedSize = 48 + 584
)

// Quote generation errors.
var (
	ErrBadReportMAC = errors.New("dcap: TDREPORT MAC verification failed")
	ErrNoModule     = errors.New("dcap: quoting enclave has no TDX module bound")
)

// Quote is the remotely verifiable structure the QE produces from a
// TDREPORT: the report body, the QE's identity, the ECDSA attestation
// signature, and the PCK certificate chain certifying the attestation
// key.
type Quote struct {
	Version    int         `json:"version"`
	Report     *tdx.Report `json:"report"`
	QEIdentity QEIdentity  `json:"qe_identity"`
	// Signature is ECDSA-P256/SHA-256 over SignedBytes by the
	// attestation key inside the PCK certificate.
	Signature []byte `json:"signature"`
	// PCKCert is the DER certificate carrying the attestation key,
	// issued by the platform root.
	PCKCert []byte `json:"pck_cert"`
	// RootCert is the DER self-signed platform root certificate.
	RootCert []byte `json:"root_cert"`
	// FMSPC identifies the platform family for TCB lookup.
	FMSPC string `json:"fmspc"`
}

// SignedBytes returns the byte string covered by the quote signature.
func (q *Quote) SignedBytes() ([]byte, error) {
	c := *q
	c.Signature = nil
	b, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("dcap: marshal quote body: %w", err)
	}
	return b, nil
}

// Marshal serializes the quote for transport.
func (q *Quote) Marshal() ([]byte, error) { return json.Marshal(q) }

// UnmarshalQuote parses a serialized quote.
func UnmarshalQuote(data []byte) (*Quote, error) {
	var q Quote
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("dcap: parse quote: %w", err)
	}
	return &q, nil
}

// QuotingEnclave simulates the Intel QE: it locally verifies TDREPORT
// MACs against the TDX module and signs quotes with a PCK-certified
// attestation key.
type QuotingEnclave struct {
	module  *tdx.Module
	fmspc   string
	attKey  *ecdsa.PrivateKey
	pckDER  []byte
	rootDER []byte
	serial  string

	// Latency models QE processing time (enclave transition, report
	// conversion); it dominates the TDX "attest" phase in Fig. 5.
	Latency time.Duration
}

// NewQuotingEnclave provisions a QE bound to module, with a fresh
// attestation key certified by a fresh platform root.
func NewQuotingEnclave(module *tdx.Module, fmspc string) (*QuotingEnclave, error) {
	if module == nil {
		return nil, ErrNoModule
	}
	rootKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("dcap: generate root key: %w", err)
	}
	attKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("dcap: generate attestation key: %w", err)
	}

	notBefore := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	notAfter := notBefore.AddDate(20, 0, 0)
	rootTpl := &x509.Certificate{
		SerialNumber:          big.NewInt(100),
		Subject:               pkix.Name{CommonName: "Intel SGX Root CA (simulated)"},
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	rootDER, err := x509.CreateCertificate(rand.Reader, rootTpl, rootTpl, &rootKey.PublicKey, rootKey)
	if err != nil {
		return nil, fmt.Errorf("dcap: create root cert: %w", err)
	}
	rootCert, err := x509.ParseCertificate(rootDER)
	if err != nil {
		return nil, fmt.Errorf("dcap: parse root cert: %w", err)
	}

	pckSerial := big.NewInt(4242)
	pckTpl := &x509.Certificate{
		SerialNumber: pckSerial,
		Subject:      pkix.Name{CommonName: "Intel SGX PCK Certificate (simulated)"},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	pckDER, err := x509.CreateCertificate(rand.Reader, pckTpl, rootCert, &attKey.PublicKey, rootKey)
	if err != nil {
		return nil, fmt.Errorf("dcap: create PCK cert: %w", err)
	}

	return &QuotingEnclave{
		module:  module,
		fmspc:   fmspc,
		attKey:  attKey,
		pckDER:  pckDER,
		rootDER: rootDER,
		serial:  pckSerial.String(),
		Latency: 240 * time.Millisecond,
	}, nil
}

// PCKSerial returns the PCK certificate serial (for revocation tests).
func (qe *QuotingEnclave) PCKSerial() string { return qe.serial }

// GenerateQuote converts a serialized TDREPORT into a signed quote,
// first verifying the report MAC against the bound module (local
// attestation between TD and QE).
func (qe *QuotingEnclave) GenerateQuote(reportBytes []byte) (*Quote, error) {
	report, err := tdx.UnmarshalReport(reportBytes)
	if err != nil {
		return nil, err
	}
	if !qe.module.VerifyReportMAC(report) {
		return nil, ErrBadReportMAC
	}
	q := &Quote{
		Version:    4,
		Report:     report,
		QEIdentity: QEIdentity{MrSigner: qeMrSigner, ISVSVN: 2},
		PCKCert:    qe.pckDER,
		RootCert:   qe.rootDER,
		FMSPC:      qe.fmspc,
	}
	body, err := q.SignedBytes()
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(body)
	sig, err := ecdsa.SignASN1(rand.Reader, qe.attKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("dcap: sign quote: %w", err)
	}
	q.Signature = sig
	return q, nil
}

// Attester implements attest.Attester for a TDX guest: it obtains the
// TDREPORT via the guest's TDCALL path and converts it with the QE.
type Attester struct {
	guest tee.Guest
	qe    *QuotingEnclave
	// ReportLatency models the TDCALL TDG.MR.REPORT round trip.
	ReportLatency time.Duration
}

var _ attest.Attester = (*Attester)(nil)

// NewAttester binds a TDX guest to a quoting enclave.
func NewAttester(guest tee.Guest, qe *QuotingEnclave) *Attester {
	return &Attester{guest: guest, qe: qe, ReportLatency: 9 * time.Millisecond}
}

// Execute implements attest.Attester: the TDX module MACs the
// TDREPORT, and the QE checks the MAC, hashes the quote body and signs
// it (ECDSA P-256).
func (a *Attester) Execute(ctx context.Context, nonce []byte) (attest.Evidence, attest.Usage, error) {
	return attest.Metered(func(u *attest.Usage) (attest.Evidence, error) {
		reportBytes, err := a.guest.AttestationReport(ctx, nonce)
		if err != nil {
			return attest.Evidence{}, err
		}
		if err := ctx.Err(); err != nil {
			return attest.Evidence{}, err
		}
		quote, err := a.qe.GenerateQuote(reportBytes)
		if err != nil {
			return attest.Evidence{}, err
		}
		data, err := quote.Marshal()
		if err != nil {
			return attest.Evidence{}, err
		}
		u.Hash(crypto.SHA384, 2*tdReportMACSize)
		u.Hash(crypto.SHA256, quoteSignedSize)
		u.Sign(elliptic.P256())
		u.Infra = a.ReportLatency + a.qe.Latency
		return attest.Evidence{Platform: tee.KindTDX, Data: data}, nil
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
