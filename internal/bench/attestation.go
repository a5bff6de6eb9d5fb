package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"confbench/internal/attest"
	"confbench/internal/stats"
	"confbench/internal/tee"
)

// AttestationResult is the Fig. 5 data for one platform: absolute
// latencies of the evidence-generation ("attest") and verification
// ("check") phases.
type AttestationResult struct {
	Kind     tee.Kind      `json:"tee"`
	AttestMs stats.Summary `json:"attest_ms"`
	CheckMs  stats.Summary `json:"check_ms"`
}

// Attestation reproduces the attestation experiment (§IV-C, Fig. 5)
// for one platform: trials× evidence bound to a fresh nonce, produced
// and verified, both phases priced. A trial is a pricing (DESIGN.md
// §15): trial 0 and trial 1 execute, since trial 0 may fill a
// verifier's collateral cache and from trial 1 on a round's work
// repeats; trial i is priced under (attestation, kind, phase, i), from
// trial 0's execution for i = 0 and from trial 1's for every later one.
// Every execution's verdict must be OK.
func Attestation(ctx context.Context, kind tee.Kind, attester attest.Attester, verifier attest.Verifier, trials int) (AttestationResult, error) {
	if trials <= 0 {
		trials = 10
	}
	var attestUse, checkUse [2]attest.Usage
	for i := 0; i < min(trials, len(attestUse)); i++ {
		nonce := freshNonce(kind, i)
		ev, u, err := attester.Execute(ctx, nonce)
		if err != nil {
			return AttestationResult{}, fmt.Errorf("bench attest %s trial %d: %w", kind, i, err)
		}
		verdict, vu, err := verifier.Execute(ctx, ev, nonce)
		if err != nil {
			return AttestationResult{}, fmt.Errorf("bench check %s trial %d: %w", kind, i, err)
		}
		if !verdict.OK {
			return AttestationResult{}, fmt.Errorf("bench check %s trial %d: verdict not OK", kind, i)
		}
		attestUse[i], checkUse[i] = u, vu
	}
	key := tee.NewKey("attestation").Name(string(kind))
	attestMs := make([]float64, trials)
	checkMs := make([]float64, trials)
	for i := range trials {
		e := min(i, 1)
		attestMs[i] = float64(attester.Price(attestUse[e], key.Name("attest").Num(uint64(i))).Total().Nanoseconds()) / 1e6
		checkMs[i] = float64(verifier.Price(checkUse[e], key.Name("check").Num(uint64(i))).Total().Nanoseconds()) / 1e6
	}
	aSum, err := stats.Summarize(attestMs)
	if err != nil {
		return AttestationResult{}, err
	}
	cSum, err := stats.Summarize(checkMs)
	if err != nil {
		return AttestationResult{}, err
	}
	return AttestationResult{Kind: kind, AttestMs: aSum, CheckMs: cSum}, nil
}

// freshNonce derives a deterministic 64-byte verifier challenge.
func freshNonce(kind tee.Kind, trial int) []byte {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(trial))
	h1 := sha256.Sum256(append([]byte("confbench-nonce:"+string(kind)+":"), seed[:]...))
	h2 := sha256.Sum256(h1[:])
	return append(h1[:], h2[:]...)
}
