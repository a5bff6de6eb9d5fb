// Attestation walkthrough: produce and verify attestation evidence for
// the TDX and SEV-SNP confidential VMs, showing the two flows the
// paper benchmarks in Fig. 5 — the DCAP quote with network-fetched
// collateral versus the AMD-SP report with a hardware-local chain —
// and a tamper check proving the verifiers actually verify.
//
//	go run ./examples/attestation
package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"log"

	"confbench"
	"confbench/internal/attest"
	"confbench/internal/tee"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	cluster, err := confbench.New(confbench.WithTEEs(tee.KindTDX, tee.KindSEV), confbench.WithGuestMemoryMB(16))
	if err != nil {
		return err
	}
	defer cluster.Close()

	// A 64-byte verifier challenge, bound into the evidence.
	nonce := make([]byte, attest.NonceSize)
	h := sha256.Sum256([]byte("confbench attestation example"))
	copy(nonce, h[:])
	copy(nonce[32:], h[:])

	fmt.Println("== Intel TDX: DCAP quote + PCS-backed verification ==")
	ta, tv, err := cluster.TDXAttestation()
	if err != nil {
		return err
	}
	if err := roundTrip(ctx, ta, tv, nonce); err != nil {
		return err
	}
	fmt.Printf("(the check phase fetched collateral from the simulated Intel PCS: %d HTTP requests so far)\n\n",
		cluster.PCS().Requests())

	fmt.Println("== AMD SEV-SNP: AMD-SP report + VCEK/ASK/ARK chain ==")
	sa, sv, err := cluster.SEVAttestation()
	if err != nil {
		return err
	}
	if err := roundTrip(ctx, sa, sv, nonce); err != nil {
		return err
	}

	fmt.Println("== Tamper check: a bit-flipped nonce must be rejected ==")
	ev, _, err := sa.Attest(ctx, nonce)
	if err != nil {
		return err
	}
	badNonce := append([]byte(nil), nonce...)
	badNonce[0] ^= 0xff
	if _, _, err := sv.Verify(ctx, ev, badNonce); err != nil {
		fmt.Printf("verification correctly failed: %v\n", err)
	} else {
		return fmt.Errorf("tampered nonce was accepted")
	}
	return nil
}

func roundTrip(ctx context.Context, a attest.Attester, v attest.Verifier, nonce []byte) error {
	ev, attestTiming, err := a.Attest(ctx, nonce)
	if err != nil {
		return fmt.Errorf("attest: %w", err)
	}
	verdict, checkTiming, err := v.Verify(ctx, ev, nonce)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	fmt.Printf("platform:    %s\n", verdict.Platform)
	fmt.Printf("measurement: %.32s…\n", verdict.Measurement)
	fmt.Printf("tcb status:  %s\n", verdict.TCBStatus)
	for _, d := range verdict.Details {
		fmt.Printf("  - %s\n", d)
	}
	fmt.Printf("attest: %v   check: %v\n\n", attestTiming.Total(), checkTiming.Total())
	return nil
}
