// Package sev simulates AMD Secure Encrypted Virtualization with
// Secure Nested Paging (SEV-SNP) for ConfBench.
//
// Per §II of the paper, SEV-SNP extends SEV's VM memory encryption
// with strong integrity protection enforced through the Reverse Map
// Table (RMP), which tracks the owner of every physical page, and each
// SNP guest can request an attestation report from the firmware,
// signed by the AMD-SP secure coprocessor. This package models the RMP
// as far as page donation and reclaim drive it and the AMD-SP's launch
// and report flow; guests run at VMPL0, and backend.go expresses the
// performance profile (cheaper I/O than TDX via shared pages, slightly
// costlier CPU/memory path) as a tee.CostModel.
package sev

import (
	"errors"
	"fmt"
	"sync"

	"confbench/internal/obs"
)

// PageSize is the RMP granularity.
const PageSize = 4096

// RMP errors.
var (
	ErrPageAssigned    = errors.New("sev: page already assigned in RMP")
	ErrPageNotAssigned = errors.New("sev: page not assigned to any guest")
	ErrWrongOwner      = errors.New("sev: RMP owner mismatch")
	ErrDoubleValidate  = errors.New("sev: page already validated")
)

// RMPEntry describes the ownership and validation state of one page.
type RMPEntry struct {
	// ASID is the owning guest's address-space ID (0 = hypervisor).
	ASID uint32
	// Assigned marks the page as guest-private.
	Assigned bool
	// Validated is set by the guest's PVALIDATE.
	Validated bool
	// Immutable marks firmware pages (metadata, VMSA).
	Immutable bool
}

// RMP is the Reverse Map Table: one entry per physical page. It
// enforces the single-owner invariant that gives SNP its integrity
// guarantees.
type RMP struct {
	mu      sync.Mutex
	entries map[uint64]*RMPEntry

	// ops counts RMP operations (RMPUPDATE, PVALIDATE, hardware walks).
	ops *obs.Counter
}

// NewRMP returns an empty reverse map table.
func NewRMP() *RMP {
	return &RMP{
		entries: make(map[uint64]*RMPEntry, 256),
		ops:     obs.Default().Counter("confbench_tee_rmp_ops_total", "tee", "sev-snp"),
	}
}

// SetObsRegistry points the RMP's operation counter at reg instead of
// the process-wide default. Call before serving traffic.
func (r *RMP) SetObsRegistry(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = obs.OrDefault(reg).Counter("confbench_tee_rmp_ops_total", "tee", "sev-snp")
}

func pfn(pa uint64) (uint64, error) {
	if pa%PageSize != 0 {
		return 0, fmt.Errorf("sev: address %#x not page aligned", pa)
	}
	return pa / PageSize, nil
}

// Assign transitions a hypervisor page to guest-private state for the
// guest with the given ASID (RMPUPDATE issued by the hypervisor). The
// page must not already be assigned — reassignment without a reclaim
// is exactly the remapping attack SNP blocks.
func (r *RMP) Assign(pa uint64, asid uint32) error {
	n, err := pfn(pa)
	if err != nil {
		return err
	}
	if asid == 0 {
		return fmt.Errorf("sev: cannot assign to hypervisor ASID 0")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops.Inc()
	if e, ok := r.entries[n]; ok && e.Assigned {
		return fmt.Errorf("%w: page %#x owned by ASID %d", ErrPageAssigned, pa, e.ASID)
	}
	r.entries[n] = &RMPEntry{ASID: asid, Assigned: true}
	return nil
}

// Validate marks the page as validated by its guest (PVALIDATE).
// Double validation fails, defeating replay of stale mappings.
func (r *RMP) Validate(pa uint64, asid uint32) error {
	n, err := pfn(pa)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops.Inc()
	e, ok := r.entries[n]
	if !ok || !e.Assigned {
		return ErrPageNotAssigned
	}
	if e.ASID != asid {
		return fmt.Errorf("%w: page %#x owned by ASID %d, not %d", ErrWrongOwner, pa, e.ASID, asid)
	}
	if e.Validated {
		return ErrDoubleValidate
	}
	e.Validated = true
	return nil
}

// ReclaimAll releases every page owned by asid and returns the count.
func (r *RMP) ReclaimAll(asid uint32) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int
	for k, e := range r.entries {
		if e.ASID == asid {
			delete(r.entries, k)
			n++
		}
	}
	return n
}

// AssignedPages returns the number of private pages owned by asid.
func (r *RMP) AssignedPages(asid uint32) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int
	for _, e := range r.entries {
		if e.ASID == asid && e.Assigned {
			n++
		}
	}
	return n
}
