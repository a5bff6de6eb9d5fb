// Package attest defines the common remote-attestation vocabulary
// used by ConfBench's TDX (DCAP) and SEV-SNP attestation flows.
//
// Following §II of the paper, remote attestation involves three
// parties: the attester (the confidential VM) collects claims about
// its state and cryptographically signs them; the verifier checks the
// claims against platform endorsements; and the relying party consumes
// the verdict. ConfBench prices the latency of the two user-visible
// phases — producing evidence ("attest") and validating it ("check") —
// which Fig. 5 compares across TDX and SEV-SNP. Like a vm.VM, an
// attester or a verifier splits a phase in two: Execute does the real
// cryptographic work once and meters it, Price charges that work under
// a key, so a trial is a pricing (DESIGN.md §15).
package attest

import (
	"context"
	"errors"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
	"confbench/internal/tee"
)

// Attestation errors shared across flows.
var (
	// ErrVerification is returned when evidence fails validation.
	ErrVerification = errors.New("attest: evidence verification failed")
	// ErrNonceMismatch is returned when the evidence does not bind the
	// verifier's nonce.
	ErrNonceMismatch = errors.New("attest: nonce not bound in evidence")
	// ErrTCBOutOfDate is returned when the platform TCB is below the
	// verifier's policy minimum.
	ErrTCBOutOfDate = errors.New("attest: platform TCB out of date")
	// ErrRevoked is returned when a signing key appears on a CRL.
	ErrRevoked = errors.New("attest: signing key revoked")
)

// NonceSize is the challenge size bound into evidence (fits the
// 64-byte report-data fields of both TDX and SNP).
const NonceSize = 64

// Evidence is serialized attestation material plus its platform kind.
type Evidence struct {
	Platform tee.Kind `json:"platform"`
	Data     []byte   `json:"data"`
}

// Timing records the latency of one attestation phase as a user
// perceives it: the priced local compute plus the modeled
// infrastructure latency (QE processing, PCS round trips, firmware
// mailbox) that the simulation cannot spend for real.
type Timing struct {
	// Compute is the price of the phase's metered work (Usage.Work).
	Compute time.Duration `json:"compute"`
	// Infra is modeled infrastructure latency (network, firmware).
	Infra time.Duration `json:"infra"`
}

// Total returns the end-to-end latency of the phase.
func (t Timing) Total() time.Duration { return t.Compute + t.Infra }

// Verdict is the verifier's decision about a piece of evidence.
type Verdict struct {
	// OK reports whether the evidence verified.
	OK bool `json:"ok"`
	// Platform is the attested TEE kind.
	Platform tee.Kind `json:"platform"`
	// Measurement is the hex build-time measurement extracted from the
	// evidence (MRTD for TDX, launch digest for SNP).
	Measurement string `json:"measurement"`
	// TCBStatus summarizes the platform TCB evaluation.
	TCBStatus string `json:"tcb_status"`
	// Details carries flow-specific notes for the relying party.
	Details []string `json:"details,omitempty"`
}

// Usage is what one execution of an attestation phase did, unpriced.
type Usage struct {
	// Work is the phase's local computation — ECDSA signatures and
	// verifications, SHA bytes, certificate and collateral parses — as
	// meter.CPUOps weighted per primitive (work.go).
	Work meter.Usage
	// Infra is the modeled infrastructure latency the execution
	// incurred: firmware round trips, QE processing, PCS fetches.
	Infra time.Duration
	// Wall is the measured wall time of the execution: what the
	// harness spent, not what the platform would. No priced value
	// reads it.
	Wall time.Duration
}

// Metered runs one execution of an attestation phase, body metering
// its work into the Usage it is handed, and fills in the wall time.
// It is the one place the attestation flows read the clock
// (TestLintNoWallClockInPricedValues in internal/bench).
func Metered[T any](body func(u *Usage) (T, error)) (T, Usage, error) {
	var u Usage
	start := time.Now()
	v, err := body(&u)
	u.Wall = time.Since(start)
	return v, u, err
}

// PriceOnGuest is an attester's Price: the work is charged by the
// guest it ran in, on top of its cost on host, the jitter drawn under
// key.
func PriceOnGuest(g tee.Guest, host cpumodel.Profile, u Usage, key tee.Key) Timing {
	return Timing{Compute: g.Price(u.Work, host.Cost(u.Work), key).Total, Infra: u.Infra}
}

// PriceOnHost is a verifier's Price: a relying party runs on no
// guest, so the work costs what host's profile says, noise-free.
func PriceOnHost(host cpumodel.Profile, u Usage) Timing {
	return Timing{Compute: host.TotalCost(u.Work), Infra: u.Infra}
}

// NonceKey is the pricing key of a phase run on its own, by Attest or
// Verify: what it measured is the evidence for nonce.
func NonceKey(nonce []byte) tee.Key { return tee.NewKey("attest-nonce").Name(string(nonce)) }

// Attester produces evidence bound to a verifier nonce.
type Attester interface {
	// Execute produces evidence binding nonce and the usage of doing
	// so, unpriced. A canceled ctx aborts before the firmware round
	// trip.
	Execute(ctx context.Context, nonce []byte) (Evidence, Usage, error)
	// Price charges one execution's usage, its jitter drawn under key.
	Price(u Usage, key tee.Key) Timing
	// Attest is Execute, then Price under NonceKey(nonce).
	Attest(ctx context.Context, nonce []byte) (Evidence, Timing, error)
}

// Verifier validates evidence against platform endorsements.
type Verifier interface {
	// Execute checks the evidence and nonce binding and returns the
	// verdict with the usage of checking, unpriced. The ctx bounds
	// collateral fetches (PCS round trips).
	Execute(ctx context.Context, ev Evidence, nonce []byte) (*Verdict, Usage, error)
	// Price charges one execution's usage; key names what it measured.
	Price(u Usage, key tee.Key) Timing
	// Verify is Execute, then Price under NonceKey(nonce).
	Verify(ctx context.Context, ev Evidence, nonce []byte) (*Verdict, Timing, error)
}
