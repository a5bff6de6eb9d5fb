package bench

import (
	"context"
	"strings"
	"testing"

	"confbench/internal/attest"
	"confbench/internal/attest/dcap"
	"confbench/internal/attest/snp"
	"confbench/internal/tee"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
)

// countingAttester counts the executions of the attester it wraps.
type countingAttester struct {
	attest.Attester
	executions int
}

func (c *countingAttester) Execute(ctx context.Context, nonce []byte) (attest.Evidence, attest.Usage, error) {
	c.executions++
	return c.Attester.Execute(ctx, nonce)
}

// countingVerifier counts the executions of the verifier it wraps and
// turns the verdict of execution notOK (1-based; 0 = none) into a
// rejection that carries no error.
type countingVerifier struct {
	attest.Verifier
	executions, notOK int
}

func (c *countingVerifier) Execute(ctx context.Context, ev attest.Evidence, nonce []byte) (*attest.Verdict, attest.Usage, error) {
	c.executions++
	verdict, u, err := c.Verifier.Execute(ctx, ev, nonce)
	if c.executions == c.notOK {
		verdict = &attest.Verdict{Platform: verdict.Platform}
	}
	return verdict, u, err
}

// attestationRound is one of the three rounds of a figure pass: an
// attester and a fresh verifier for it.
type attestationRound struct {
	name     string
	kind     tee.Kind
	attester attest.Attester
	verifier func() attest.Verifier
}

// attestationRounds builds the rounds of Fig. 5 and its ablation: TDX
// with cold collateral, TDX with collateral cached after the first
// fetch, SEV-SNP.
func attestationRounds(t *testing.T) []attestationRound {
	t.Helper()
	tdxB := must(tdx.NewBackend(tdx.Options{Seed: 61}))
	sevB := must(sev.NewBackend(sev.Options{Seed: 62}))
	pcs := must(dcap.NewPCS("f"))
	if err := pcs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pcs.Close() })
	tdxAttester := dcap.NewAttester(pairOn(t, tdxB).Secure.Guest(), must(dcap.NewQuotingEnclave(tdxB.Module(), "f")))
	return []attestationRound{
		{"tdx-cold", tee.KindTDX, tdxAttester, func() attest.Verifier { return dcap.NewVerifier(pcs) }},
		{"tdx-cached", tee.KindTDX, tdxAttester, func() attest.Verifier {
			v := dcap.NewVerifier(pcs)
			v.CacheCollateral = true
			return v
		}},
		{"sev", tee.KindSEV, snp.NewAttester(pairOn(t, sevB).Secure.Guest()), func() attest.Verifier {
			return snp.NewVerifier(sevB.SecureProcessor().CertChainCopy())
		}},
	}
}

// TestAttestationExecutesTwicePerRound: a round executes trial 0 and
// trial 1 and prices every trial, so its executions do not grow with
// the trials. Trial 0 of the cached round still reads cold, every later
// trial reads the cached check, and a verifier's price is noise-free.
func TestAttestationExecutesTwicePerRound(t *testing.T) {
	rounds := attestationRounds(t)
	for _, trials := range []int{3, 10} {
		cold := map[string]float64{}
		for _, r := range rounds {
			a := &countingAttester{Attester: r.attester}
			v := &countingVerifier{Verifier: r.verifier()}
			res, err := Attestation(context.Background(), r.kind, a, v, trials)
			if err != nil {
				t.Fatal(err)
			}
			if a.executions != 2 || v.executions != 2 {
				t.Errorf("%s, %d trials: %d attests and %d verifies executed, want 2 and 2", r.name, trials, a.executions, v.executions)
			}
			if res.AttestMs.N != trials || res.CheckMs.N != trials {
				t.Errorf("%s: %d/%d samples, want %d", r.name, res.AttestMs.N, res.CheckMs.N, trials)
			}
			cold[r.name] = res.CheckMs.Max
			if r.name == "tdx-cached" {
				want := (cold["tdx-cold"] + float64(trials-1)*res.CheckMs.Min) / float64(trials)
				if res.CheckMs.Max != cold["tdx-cold"] || res.CheckMs.Min >= cold["tdx-cold"]/100 || !near(res.CheckMs.Mean, want) {
					t.Errorf("%d trials: cached check %+v, want trial 0 at the cold %.3f ms and the others cached", trials, res.CheckMs, cold["tdx-cold"])
				}
			}
			if r.name != "tdx-cached" && res.CheckMs.Min != res.CheckMs.Max {
				t.Errorf("%s: check %+v moves between trials of one execution", r.name, res.CheckMs)
			}
		}
	}
}

// TestAttestationChecksEveryVerdict: a verdict that is not OK fails the
// round, on the trial 0 and on the trial 1 execution.
func TestAttestationChecksEveryVerdict(t *testing.T) {
	r := attestationRounds(t)[2]
	for _, notOK := range []int{1, 2} {
		v := &countingVerifier{Verifier: r.verifier(), notOK: notOK}
		_, err := Attestation(context.Background(), r.kind, r.attester, v, 10)
		if err == nil || !strings.Contains(err.Error(), "verdict not OK") {
			t.Errorf("verdict of execution %d not OK: err = %v", notOK, err)
		}
	}
}

// near reports whether a and b agree to a part in 10^9.
func near(a, b float64) bool { return a-b < 1e-9*b && b-a < 1e-9*b }
