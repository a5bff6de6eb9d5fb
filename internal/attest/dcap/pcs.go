// Package dcap implements the Intel DCAP (Data Center Attestation
// Primitives) flow ConfBench uses for TDX guests, mirroring the
// go-tdx-guest-based setup of §IV-C:
//
//   - a Quoting Enclave (QE) converts a TD's locally-MAC'd TDREPORT
//     into a remotely verifiable quote signed with an ECDSA
//     attestation key certified by the PCK certificate chain;
//   - a simulated Intel Provisioning Certification Service (PCS)
//     serves TCB info, the PCK CRL, and the QE identity over real
//     HTTP; the verifier fetches this collateral on every check,
//     which is why the paper's Fig. 5 shows the TDX "check" phase
//     dominated by network requests.
//
// All signatures are real ECDSA P-256 over SHA-256; certificates are
// real X.509.
package dcap

import (
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"confbench/internal/api"
	"confbench/internal/attest"
)

// Collateral endpoint paths served by the PCS.
const (
	PathTCBInfo    = "/tdx/certification/v4/tcb"
	PathPCKCRL     = "/sgx/certification/v4/pckcrl"
	PathQEIdentity = "/tdx/certification/v4/qe/identity"
)

// TCBStatus values reported by TCB info levels.
const (
	TCBUpToDate  = "UpToDate"
	TCBOutOfDate = "OutOfDate"
	TCBRevoked   = "Revoked"
)

// TCBLevel maps a minimum TEE TCB SVN to a status.
type TCBLevel struct {
	MinTeeTcbSvn uint32 `json:"min_tee_tcb_svn"`
	Status       string `json:"status"`
}

// TCBInfo is the platform TCB description served by the PCS.
type TCBInfo struct {
	FMSPC     string     `json:"fmspc"`
	Version   int        `json:"version"`
	IssueDate time.Time  `json:"issue_date"`
	Levels    []TCBLevel `json:"tcb_levels"`
}

// StatusFor evaluates the status of the given TEE TCB SVN: the highest
// level whose minimum is satisfied wins.
func (t TCBInfo) StatusFor(svn uint32) string {
	best := TCBOutOfDate
	bestMin := int64(-1)
	for _, l := range t.Levels {
		if svn >= l.MinTeeTcbSvn && int64(l.MinTeeTcbSvn) > bestMin {
			best = l.Status
			bestMin = int64(l.MinTeeTcbSvn)
		}
	}
	return best
}

// CRL is the PCK certificate revocation list served by the PCS.
type CRL struct {
	IssueDate time.Time `json:"issue_date"`
	// RevokedSerials lists revoked PCK certificate serial numbers.
	RevokedSerials []string `json:"revoked_serials"`
}

// Contains reports whether serial appears on the list.
func (c CRL) Contains(serial string) bool {
	for _, s := range c.RevokedSerials {
		if s == serial {
			return true
		}
	}
	return false
}

// QEIdentity describes the expected quoting enclave.
type QEIdentity struct {
	MrSigner string `json:"mr_signer"`
	ISVSVN   uint32 `json:"isv_svn"`
}

// SignedCollateral wraps a collateral payload with an ECDSA signature
// by the PCS TCB signing key.
type SignedCollateral struct {
	Payload   []byte `json:"payload"`
	Signature []byte `json:"signature"`
}

// PCS is a simulated Intel Provisioning Certification Service: a real
// HTTP server on localhost serving signed collateral. WANLatency
// models the per-request Internet round trip that the verifier adds to
// its timing (the local HTTP exchange itself is real but near-free).
type PCS struct {
	mu         sync.Mutex
	signingKey *ecdsa.PrivateKey
	tcbInfo    TCBInfo
	crl        CRL
	qeIdentity QEIdentity
	server     *http.Server
	listener   net.Listener
	baseURL    string
	peer       *api.Peer // baseURL, for the collateral fetch
	requests   int

	// WANLatency is the modeled per-request round-trip latency.
	WANLatency time.Duration
}

// NewPCS provisions a PCS with a fresh signing key and default
// collateral for the given FMSPC.
func NewPCS(fmspc string) (*PCS, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("dcap: generate PCS key: %w", err)
	}
	return &PCS{
		signingKey: key,
		tcbInfo: TCBInfo{
			FMSPC:     fmspc,
			Version:   3,
			IssueDate: time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
			Levels: []TCBLevel{
				{MinTeeTcbSvn: 5, Status: TCBUpToDate},
				{MinTeeTcbSvn: 3, Status: TCBOutOfDate},
			},
		},
		crl: CRL{
			IssueDate:      time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
			RevokedSerials: []string{},
		},
		qeIdentity: QEIdentity{MrSigner: qeMrSigner, ISVSVN: 2},
		WANLatency: 165 * time.Millisecond,
	}, nil
}

// PublicKey returns the collateral-signing public key verifiers pin.
func (p *PCS) PublicKey() *ecdsa.PublicKey { return &p.signingKey.PublicKey }

// SetTCBInfo replaces the served TCB info (for TCB-recovery tests).
func (p *PCS) SetTCBInfo(info TCBInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tcbInfo = info
}

// Revoke adds a PCK serial to the CRL.
func (p *PCS) Revoke(serial string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crl.RevokedSerials = append(p.crl.RevokedSerials, serial)
}

// Requests returns the number of collateral requests served.
func (p *PCS) Requests() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests
}

// Start serves the PCS on a localhost ephemeral port.
func (p *PCS) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.listener != nil {
		return errors.New("dcap: PCS already started")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dcap: listen: %w", err)
	}
	base := "http://" + ln.Addr().String()
	peer, err := api.NewPeer(base)
	if err != nil {
		_ = ln.Close()
		return fmt.Errorf("dcap: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathTCBInfo, p.handle(func() any { return p.tcbInfo }))
	mux.HandleFunc(PathPCKCRL, p.handle(func() any { return p.crl }))
	mux.HandleFunc(PathQEIdentity, p.handle(func() any { return p.qeIdentity }))
	p.listener = ln
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	p.server = srv
	p.baseURL, p.peer = base, peer
	go func() {
		// Serve returns ErrServerClosed on Shutdown; nothing to do.
		_ = srv.Serve(ln)
	}()
	return nil
}

// BaseURL returns the service URL (valid after Start).
func (p *PCS) BaseURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.baseURL
}

// Close shuts the HTTP server down.
func (p *PCS) Close() error {
	p.mu.Lock()
	srv := p.server
	p.server = nil
	p.listener = nil
	p.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// handle wraps a collateral getter in the signed-envelope protocol.
func (p *PCS) handle(get func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.requests++
		payload, err := json.Marshal(get())
		key := p.signingKey
		p.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		digest := sha256.Sum256(payload)
		sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(SignedCollateral{Payload: payload, Signature: sig}); err != nil {
			// Client went away mid-response; nothing useful to do.
			return
		}
	}
}

// fetchTimeout bounds one collateral fetch.
const fetchTimeout = 5 * time.Second

// FetchCollateral retrieves and authenticates one collateral document,
// decoding it into out, and meters the fetch into u: the modeled WAN
// round trip as infrastructure latency, and the envelope's signature
// check, payload hash and decoding as work. The round trip is one
// api.Peer.Exchange, bounded by ctx and by fetchTimeout; cancellation
// surfaces through the returned error.
func (p *PCS) FetchCollateral(ctx context.Context, path string, out any, u *attest.Usage) error {
	p.mu.Lock()
	peer := p.peer
	p.mu.Unlock()
	if peer == nil {
		return errors.New("dcap: PCS not started")
	}
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	var env SignedCollateral
	if err := peer.Exchange(ctx, http.MethodGet, path, "", nil, &env); err != nil {
		return fmt.Errorf("dcap: fetch %s: %w", path, err)
	}
	digest := sha256.Sum256(env.Payload)
	if !ecdsa.VerifyASN1(p.PublicKey(), digest[:], env.Signature) {
		return fmt.Errorf("dcap: collateral signature invalid for %s", path)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("dcap: parse %s: %w", path, err)
	}
	u.Infra += p.WANLatency
	u.Hash(crypto.SHA256, len(env.Payload))
	u.VerifySignature(elliptic.P256())
	u.ParseCollateral()
	return nil
}

// qeMrSigner is the well-known signer measurement of the simulated QE.
var qeMrSigner = base64.StdEncoding.EncodeToString([]byte("confbench-quoting-enclave-signer"))
