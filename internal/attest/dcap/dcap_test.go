package dcap

import (
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"confbench/internal/attest"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
)

// testStack boots a module+TD, QE, and PCS for one test.
type testStack struct {
	backend *tdx.Backend
	guest   tee.Guest
	qe      *QuotingEnclave
	pcs     *PCS
}

func newStack(t *testing.T) *testStack {
	t.Helper()
	backend, err := tdx.NewBackend(tdx.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := backend.Launch(tee.GuestConfig{Name: "attest-td", MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = guest.Destroy() })
	qe, err := NewQuotingEnclave(backend.Module(), "fmspc-test")
	if err != nil {
		t.Fatal(err)
	}
	pcs, err := NewPCS("fmspc-test")
	if err != nil {
		t.Fatal(err)
	}
	if err := pcs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pcs.Close() })
	return &testStack{backend: backend, guest: guest, qe: qe, pcs: pcs}
}

func nonce64(s string) []byte {
	n := make([]byte, attest.NonceSize)
	copy(n, s)
	return n
}

func TestQuoteGenerationAndVerification(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)

	nonce := nonce64("fresh-challenge")
	ev, timing, err := attester.Attest(context.Background(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Platform != tee.KindTDX {
		t.Errorf("platform = %v", ev.Platform)
	}
	if timing.Infra <= 0 {
		t.Error("attest infra latency missing")
	}
	verdict, checkTiming, err := verifier.Verify(context.Background(), ev, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.OK || verdict.TCBStatus != TCBUpToDate {
		t.Errorf("verdict = %+v", verdict)
	}
	if verdict.Measurement == "" {
		t.Error("measurement missing from verdict")
	}
	// The check phase pays three PCS round trips.
	if checkTiming.Infra != 3*st.pcs.WANLatency {
		t.Errorf("check infra = %v, want %v", checkTiming.Infra, 3*st.pcs.WANLatency)
	}
}

func TestVerifyRejectsWrongNonce(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)
	ev, _, err := attester.Attest(context.Background(), nonce64("nonce-A"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := verifier.Verify(context.Background(), ev, nonce64("nonce-B")); !errors.Is(err, attest.ErrNonceMismatch) {
		t.Errorf("want nonce mismatch, got %v", err)
	}
}

func TestVerifyRejectsTamperedQuote(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)
	nonce := nonce64("n")
	ev, _, err := attester.Attest(context.Background(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	quote, err := UnmarshalQuote(ev.Data)
	if err != nil {
		t.Fatal(err)
	}
	quote.Report.MRTD[0] ^= 0xff
	data, _ := quote.Marshal()
	if _, _, err := verifier.Verify(context.Background(), attest.Evidence{Platform: tee.KindTDX, Data: data}, nonce); !errors.Is(err, attest.ErrVerification) {
		t.Errorf("tampered quote: %v", err)
	}
}

func TestVerifyRejectsRevokedPCK(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)
	nonce := nonce64("n")
	ev, _, err := attester.Attest(context.Background(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	st.pcs.Revoke(st.qe.PCKSerial())
	if _, _, err := verifier.Verify(context.Background(), ev, nonce); !errors.Is(err, attest.ErrRevoked) {
		t.Errorf("revoked PCK: %v", err)
	}
}

func TestVerifyRejectsOutdatedTCB(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)
	nonce := nonce64("n")
	ev, _, err := attester.Attest(context.Background(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	// Raise the minimum SVN beyond the platform's (TCB recovery).
	st.pcs.SetTCBInfo(TCBInfo{
		FMSPC:  "fmspc-test",
		Levels: []TCBLevel{{MinTeeTcbSvn: 99, Status: TCBUpToDate}},
	})
	if _, _, err := verifier.Verify(context.Background(), ev, nonce); !errors.Is(err, attest.ErrTCBOutOfDate) {
		t.Errorf("outdated TCB: %v", err)
	}
}

func TestQERejectsForeignReport(t *testing.T) {
	st := newStack(t)
	// Build a TD on a *different* module; its report MAC must fail
	// local attestation at our QE.
	other, err := tdx.NewBackend(tdx.Options{Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	otherGuest, err := other.Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer otherGuest.Destroy()
	report, err := otherGuest.AttestationReport(context.Background(), nonce64("n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.qe.GenerateQuote(report); !errors.Is(err, ErrBadReportMAC) {
		t.Errorf("foreign report: %v", err)
	}
}

func TestCollateralCaching(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)
	verifier.CacheCollateral = true
	nonce := nonce64("n")
	ev, _, err := attester.Attest(context.Background(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, timing, err := verifier.Verify(context.Background(), ev, nonce); err != nil || timing.Infra == 0 {
		t.Fatalf("first verify: %v (infra %v)", err, timing.Infra)
	}
	before := st.pcs.Requests()
	if _, timing, err := verifier.Verify(context.Background(), ev, nonce); err != nil || timing.Infra != 0 {
		t.Fatalf("cached verify: %v (infra %v)", err, timing.Infra)
	}
	if st.pcs.Requests() != before {
		t.Error("cached verify still hit the PCS")
	}
}

func TestPCSCollateralSignatureChecked(t *testing.T) {
	st := newStack(t)
	client := &http.Client{Timeout: 2 * time.Second}

	var tcb TCBInfo
	// Legitimate fetch verifies against the pinned key.
	if err := st.pcs.FetchCollateral(context.Background(), PathTCBInfo, &tcb, new(attest.Usage)); err != nil {
		t.Fatalf("legit fetch: %v", err)
	}

	// Fetch the raw envelope, tamper with the payload, and confirm
	// the ECDSA envelope check would reject it.
	resp, err := client.Get(st.pcs.BaseURL() + PathTCBInfo)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env SignedCollateral
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(env.Payload)
	if !ecdsa.VerifyASN1(st.pcs.PublicKey(), digest[:], env.Signature) {
		t.Fatal("genuine envelope rejected")
	}
	env.Payload[0] ^= 0xff
	tampered := sha256.Sum256(env.Payload)
	if ecdsa.VerifyASN1(st.pcs.PublicKey(), tampered[:], env.Signature) {
		t.Error("tampered envelope accepted")
	}
}

func TestTCBStatusFor(t *testing.T) {
	info := TCBInfo{Levels: []TCBLevel{
		{MinTeeTcbSvn: 5, Status: TCBUpToDate},
		{MinTeeTcbSvn: 3, Status: TCBOutOfDate},
	}}
	if got := info.StatusFor(6); got != TCBUpToDate {
		t.Errorf("svn 6 = %s", got)
	}
	if got := info.StatusFor(4); got != TCBOutOfDate {
		t.Errorf("svn 4 = %s", got)
	}
	if got := info.StatusFor(1); got != TCBOutOfDate {
		t.Errorf("svn 1 = %s", got)
	}
}

func TestVerifyRejectsWrongPlatform(t *testing.T) {
	st := newStack(t)
	verifier := NewVerifier(st.pcs)
	if _, _, err := verifier.Verify(context.Background(), attest.Evidence{Platform: tee.KindSEV, Data: []byte("{}")}, nil); err == nil {
		t.Error("SEV evidence accepted by DCAP verifier")
	}
}

func TestMeasurementPinning(t *testing.T) {
	st := newStack(t)
	attester := NewAttester(st.guest, st.qe)
	verifier := NewVerifier(st.pcs)
	nonce := nonce64("n")
	ev, _, err := attester.Attest(context.Background(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	// First verify unpinned to learn the genuine MRTD.
	verdict, _, err := verifier.Verify(context.Background(), ev, nonce)
	if err != nil {
		t.Fatal(err)
	}
	// Pinning the genuine measurement passes.
	verifier.ExpectedMRTD = verdict.Measurement
	if _, _, err := verifier.Verify(context.Background(), ev, nonce); err != nil {
		t.Errorf("pinned genuine MRTD rejected: %v", err)
	}
	// Pinning a different measurement fails.
	verifier.ExpectedMRTD = "deadbeef"
	if _, _, err := verifier.Verify(context.Background(), ev, nonce); !errors.Is(err, attest.ErrVerification) {
		t.Errorf("wrong pinned MRTD: %v", err)
	}
}
