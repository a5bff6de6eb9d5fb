package attest

import (
	"crypto"
	"crypto/elliptic"
	"fmt"

	"confbench/internal/meter"
)

// Per-primitive weights of the work an attestation phase meters, in
// meter.CPUOps. A host profile prices one op at 1/(BaseGHz·IPC): about
// 0.12 ns on the TDX host and 0.13 ns on the SEV-SNP host. The weights
// put each primitive near what Go's standard library spends on it on
// one x86-64 core (Go 1.24), so the modeled Compute keeps the size the
// measured one had. The grounding papers give the flows, not these
// costs: SNPGuard (PAPERS.md) an AMD-SP report plus a local VCEK → ASK
// → ARK chain, "Intel TDX Demystified" (PAPERS.md) QE quote generation
// plus PCS collateral. So every weight is free.
const (
	opsSignP256   = 360_000   // free: crypto/ecdsa SignASN1 on P-256, ~43 µs
	opsVerifyP256 = 720_000   // free: crypto/ecdsa VerifyASN1 on P-256, ~87 µs
	opsSignP384   = 2_080_000 // free: SignASN1 on P-384, ~250 µs
	opsVerifyP384 = 5_900_000 // free: VerifyASN1 on P-384, ~710 µs

	opsPerSHA256Byte = 8  // free: crypto/sha256, ~0.9 ns per byte
	opsPerSHA384Byte = 19 // free: crypto/sha512's SHA-384, ~2.3 ns per byte

	opsParseCert       = 66_000 // free: x509.ParseCertificate of one DER certificate, ~8 µs
	opsParseCollateral = 58_000 // free: decoding one signed PCS envelope and its payload, ~7 µs
)

// Sign meters one ECDSA signature on curve c.
func (u *Usage) Sign(c elliptic.Curve) { u.cpu(ecdsaOps(c, opsSignP256, opsSignP384)) }

// VerifySignature meters one ECDSA verification on curve c.
func (u *Usage) VerifySignature(c elliptic.Curve) {
	u.cpu(ecdsaOps(c, opsVerifyP256, opsVerifyP384))
}

// Hash meters hashing n bytes with h, SHA-256 or SHA-384.
func (u *Usage) Hash(h crypto.Hash, n int) {
	switch h {
	case crypto.SHA256:
		u.cpu(opsPerSHA256Byte * uint64(n))
	case crypto.SHA384:
		u.cpu(opsPerSHA384Byte * uint64(n))
	default:
		panic(fmt.Sprintf("attest: no weight for hash %v", h))
	}
}

// ParseCerts meters parsing n DER certificates.
func (u *Usage) ParseCerts(n int) { u.cpu(opsParseCert * uint64(n)) }

// ParseCollateral meters decoding one signed collateral document.
func (u *Usage) ParseCollateral() { u.cpu(opsParseCollateral) }

func (u *Usage) cpu(ops uint64) { u.Work[meter.CPUOps] += ops }

// ecdsaOps picks the P-256 or the P-384 weight for c.
func ecdsaOps(c elliptic.Curve, p256, p384 uint64) uint64 {
	switch c {
	case elliptic.P256():
		return p256
	case elliptic.P384():
		return p384
	default:
		panic(fmt.Sprintf("attest: no weight for curve %s", c.Params().Name))
	}
}
