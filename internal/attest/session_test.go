package attest_test

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"testing"

	"confbench/internal/attest"
	"confbench/internal/attest/dcap"
	"confbench/internal/attest/snp"
	"confbench/internal/tee"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
)

// stacks builds (attester, verifier) pairs for TDX and SEV.
func stacks(t *testing.T) map[string]struct {
	a attest.Attester
	v attest.Verifier
} {
	t.Helper()
	out := make(map[string]struct {
		a attest.Attester
		v attest.Verifier
	}, 2)

	tdxBackend, err := tdx.NewBackend(tdx.Options{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	tdxGuest, err := tdxBackend.Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tdxGuest.Destroy() })
	pcs, err := dcap.NewPCS("session-fmspc")
	if err != nil {
		t.Fatal(err)
	}
	if err := pcs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pcs.Close() })
	qe, err := dcap.NewQuotingEnclave(tdxBackend.Module(), "session-fmspc")
	if err != nil {
		t.Fatal(err)
	}
	out["tdx"] = struct {
		a attest.Attester
		v attest.Verifier
	}{dcap.NewAttester(tdxGuest, qe), dcap.NewVerifier(pcs)}

	sevBackend, err := sev.NewBackend(sev.Options{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	sevGuest, err := sevBackend.Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sevGuest.Destroy() })
	out["sev"] = struct {
		a attest.Attester
		v attest.Verifier
	}{snp.NewAttester(sevGuest), snp.NewVerifier(sevBackend.SecureProcessor().CertChainCopy())}

	return out
}

func challenge(t *testing.T) []byte {
	t.Helper()
	c := make([]byte, attest.ChallengeSize)
	if _, err := rand.Read(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAttestedSessionHandshake(t *testing.T) {
	for name, st := range stacks(t) {
		name, st := name, st
		t.Run(name, func(t *testing.T) {
			ch := challenge(t)
			guest, offer, err := attest.NewGuestSession(context.Background(), st.a, ch)
			if err != nil {
				t.Fatal(err)
			}
			relying, relyingPub, verdict, err := attest.AcceptSession(context.Background(), st.v, offer, ch)
			if err != nil {
				t.Fatal(err)
			}
			if !verdict.OK {
				t.Fatal("verdict not OK")
			}
			guestSession, err := guest.Complete(relyingPub)
			if err != nil {
				t.Fatal(err)
			}
			if guestSession.Key() != relying.Key() {
				t.Fatal("session keys differ")
			}

			// Messages sealed on one side open on the other.
			msg := []byte("confidential payload through the attested channel")
			sealed, err := guestSession.Seal(msg)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := relying.Open(sealed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(opened, msg) {
				t.Errorf("round trip = %q", opened)
			}
			// Tampered ciphertext must not open.
			sealed[len(sealed)-1] ^= 0xff
			if _, err := relying.Open(sealed); err == nil {
				t.Error("tampered ciphertext opened")
			}
		})
	}
}

func TestAttestedSessionRejectsSubstitutedKey(t *testing.T) {
	st := stacks(t)["sev"]
	ch := challenge(t)
	_, offer, err := attest.NewGuestSession(context.Background(), st.a, ch)
	if err != nil {
		t.Fatal(err)
	}
	// A machine-in-the-middle swaps in its own ECDH key; the evidence
	// binds hash(original pub), so verification must fail.
	mitm, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	offer.AttesterPub = mitm.PublicKey().Bytes()
	if _, _, _, err := attest.AcceptSession(context.Background(), st.v, offer, ch); err == nil {
		t.Fatal("substituted public key accepted")
	}
}

func TestAttestedSessionRejectsWrongChallenge(t *testing.T) {
	st := stacks(t)["sev"]
	ch := challenge(t)
	_, offer, err := attest.NewGuestSession(context.Background(), st.a, ch)
	if err != nil {
		t.Fatal(err)
	}
	other := challenge(t)
	if _, _, _, err := attest.AcceptSession(context.Background(), st.v, offer, other); err == nil {
		t.Fatal("stale/replayed offer accepted under a different challenge")
	}
}

func TestAttestedSessionChallengeSize(t *testing.T) {
	st := stacks(t)["sev"]
	if _, _, err := attest.NewGuestSession(context.Background(), st.a, []byte("short")); err == nil {
		t.Error("short challenge accepted by guest")
	}
	if _, _, _, err := attest.AcceptSession(context.Background(), st.v, attest.SessionOffer{}, []byte("short")); err == nil {
		t.Error("short challenge accepted by relying party")
	}
}

func TestSessionKeysDifferAcrossHandshakes(t *testing.T) {
	st := stacks(t)["sev"]
	keys := make(map[[32]byte]bool)
	for i := 0; i < 3; i++ {
		ch := challenge(t)
		guest, offer, err := attest.NewGuestSession(context.Background(), st.a, ch)
		if err != nil {
			t.Fatal(err)
		}
		_, relyingPub, _, err := attest.AcceptSession(context.Background(), st.v, offer, ch)
		if err != nil {
			t.Fatal(err)
		}
		s, err := guest.Complete(relyingPub)
		if err != nil {
			t.Fatal(err)
		}
		if keys[s.Key()] {
			t.Fatal("session key repeated across handshakes")
		}
		keys[s.Key()] = true
	}
}

func TestSessionReportDataBindsBoth(t *testing.T) {
	// White-box sanity: different pubs or challenges must change the
	// bound report data (verified indirectly through the evidence, but
	// cheap to assert directly via hashing behaviour).
	a := sha256.Sum256([]byte("pub-a"))
	b := sha256.Sum256([]byte("pub-b"))
	if a == b {
		t.Fatal("hash collision in test setup")
	}
}
