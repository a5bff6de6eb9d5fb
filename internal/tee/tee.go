// Package tee defines the trusted-execution-environment abstraction
// used throughout ConfBench.
//
// A Backend models one TEE technology (Intel TDX, AMD SEV-SNP, ARM
// CCA) and launches Guests — confidential VM contexts that charge
// TEE-specific overheads on top of the base machine cost computed by
// internal/cpumodel. The NoTEE backend models the "normal VM" of the
// paper, so overhead ratios come out of running the same workload
// under two guests of the same host.
//
// Concrete implementations live in the tdx, sev, and cca
// sub-packages: each prices runtime transitions through its CostModel
// and keeps a platform machine (the TDX module, the SEV RMP and AMD-SP,
// the CCA RMM) only for the lifecycle, attestation and migration steps
// that drive it.
package tee

import (
	"context"
	"errors"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
)

// Kind identifies a TEE technology. The zero value is invalid.
type Kind string

// Supported TEE kinds. KindNone denotes a regular, non-confidential
// VM used as the comparison baseline.
const (
	KindNone Kind = "none"
	KindTDX  Kind = "tdx"
	KindSEV  Kind = "sev-snp"
	KindCCA  Kind = "cca"
)

// Valid reports whether k names a known TEE kind.
func (k Kind) Valid() bool {
	switch k {
	case KindNone, KindTDX, KindSEV, KindCCA:
		return true
	default:
		return false
	}
}

// Secure reports whether guests of this kind are confidential.
func (k Kind) Secure() bool { return k.Valid() && k != KindNone }

// Errors shared by TEE implementations.
var (
	// ErrGuestDestroyed is returned when operating on a torn-down guest.
	ErrGuestDestroyed = errors.New("tee: guest destroyed")
	// ErrNotSecure is returned when requesting attestation from a
	// non-confidential guest.
	ErrNotSecure = errors.New("tee: guest is not confidential")
	// ErrNoAttestation is returned when the platform cannot attest
	// (e.g. the FVP simulator lacks the hardware support, §IV-B).
	ErrNoAttestation = errors.New("tee: attestation not supported on this platform")
)

// GuestConfig parameterizes a guest launch.
type GuestConfig struct {
	// Name labels the guest (for reports and routing).
	Name string
	// MemoryMB is the guest RAM size.
	MemoryMB int
}

// WithDefaults fills unset fields with sane defaults. Memory is
// clamped to 4 GiB so measured boot flows stay cheap.
func (c GuestConfig) WithDefaults() GuestConfig {
	if c.MemoryMB <= 0 {
		c.MemoryMB = 256
	}
	if c.MemoryMB > 4096 {
		c.MemoryMB = 4096
	}
	if c.Name == "" {
		c.Name = "guest"
	}
	return c
}

// Charge is the outcome of pricing one workload execution inside a
// guest: the adjusted per-counter breakdown, the TEE transition count,
// and the total adjusted duration.
type Charge struct {
	// Breakdown is the adjusted per-counter cost.
	Breakdown cpumodel.Breakdown
	// Exits counts world/VM transitions (TDCALL+SEAMCALL for TDX,
	// VMEXIT for SEV-SNP, RSI/RMI for CCA).
	Exits uint64
	// Total is the adjusted wall-clock estimate.
	Total time.Duration
	// Fault names the injected fault kind when the fault plane fired
	// at a TEE point during pricing ("" = clean). TEE-layer faults
	// degrade virtual time rather than erroring: pricing has no error
	// channel, and a slow transition path is what a wedged TDX module
	// or RMP contention actually looks like.
	Fault string
	// FaultDelay is the virtual time the fault added to Total.
	FaultDelay time.Duration
}

// Guest is a running (confidential or normal) VM context.
type Guest interface {
	// ID returns a unique guest identifier.
	ID() string
	// Kind returns the backing TEE kind.
	Kind() Kind
	// Secure reports whether the guest is confidential.
	Secure() bool
	// BootCost returns the one-time launch cost of the guest.
	BootCost() time.Duration
	// Price computes the in-guest cost of a workload whose metered
	// usage is u and whose base (bare-host) cost is base, its jitter
	// drawn under key, what the sample measured.
	Price(u meter.Usage, base cpumodel.Breakdown, key Key) Charge
	// AttestationReport produces serialized attestation evidence bound
	// to nonce. Non-secure guests return ErrNotSecure; platforms
	// without attestation hardware return ErrNoAttestation. A canceled
	// ctx aborts the request before the firmware round trip.
	AttestationReport(ctx context.Context, nonce []byte) ([]byte, error)
	// Destroy tears the guest down and releases its resources.
	Destroy() error
}

// Backend models one TEE platform on a host machine.
type Backend interface {
	// Kind returns the TEE kind this backend implements.
	Kind() Kind
	// Name returns a human-readable platform description.
	Name() string
	// HostProfile returns the machine profile of the host.
	HostProfile() cpumodel.Profile
	// Launch starts a confidential guest.
	Launch(cfg GuestConfig) (Guest, error)
	// LaunchNormal starts a plain guest on the same host, used as the
	// normal-VM baseline of the paper's experiments.
	LaunchNormal(cfg GuestConfig) (Guest, error)
}
