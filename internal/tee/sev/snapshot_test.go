package sev

import (
	"errors"
	"testing"

	"confbench/internal/tee"
)

// TestRestoreReplaysPageDonation pins the RMP side of a restore: the
// shared lifecycle's conformance table (internal/tee) covers what the
// restored guest attests and charges.
func TestRestoreReplaysPageDonation(t *testing.T) {
	b, err := NewBackend(Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tee.GuestConfig{Name: "runtime", MemoryMB: 8}
	img, err := b.Snapshot(cfg)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// ASIDs allocate in order: the template took 1 and gave its pages
	// back, the restore takes 2.
	const templateASID, warmASID = 1, 2
	if got := b.rmp.AssignedPages(templateASID); got != 0 {
		t.Errorf("template rmp pages after snapshot = %d, want 0", got)
	}
	warm, err := b.Restore(img, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := b.rmp.AssignedPages(warmASID); got != cfg.MemoryMB {
		t.Errorf("restored rmp pages = %d, want %d", got, cfg.MemoryMB)
	}
	if err := warm.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := b.rmp.AssignedPages(warmASID); got != 0 {
		t.Errorf("rmp pages after destroy = %d, want 0", got)
	}
}

func TestLaunchImportConflicts(t *testing.T) {
	sp, err := NewAMDSP(1)
	if err != nil {
		t.Fatal(err)
	}
	var digest [MeasurementSize]byte
	if err := sp.LaunchStart(1, 0); err != nil {
		t.Fatal(err)
	}
	// An ASID mid-launch cannot be the target of an import.
	if err := sp.LaunchImport(1, 0, digest); err == nil {
		t.Error("import over in-progress launch succeeded")
	}
	if err := sp.LaunchImport(2, 0, digest); err != nil {
		t.Fatalf("import on fresh asid: %v", err)
	}
	// The imported context is finished: attestation works immediately.
	if _, err := sp.GuestRequestReport(2, 0, []byte("n")); err != nil {
		t.Errorf("report after import: %v", err)
	}
}

// TestFailedBuildAndImportLeaveNothingBehind squats on a page the next
// guest's donation will reach, so the measured build and the unmeasured
// import both fail part-way; the lifecycle must hand back the pages
// already donated and decommission the half-built context.
func TestFailedBuildAndImportLeaveNothingBehind(t *testing.T) {
	b, err := NewBackend(Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tee.GuestConfig{Name: "runtime", MemoryMB: 8}
	img, err := b.Snapshot(cfg) // ASID 1
	if err != nil {
		t.Fatal(err)
	}
	const squatter = 99
	for _, victim := range []uint32{2, 3} {
		if err := b.rmp.Assign((uint64(victim)<<32|5)*PageSize, squatter); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Launch(cfg); !errors.Is(err, ErrPageAssigned) {
		t.Fatalf("launch over a squatted page: %v", err)
	}
	if _, err := b.Restore(img, cfg); !errors.Is(err, ErrPageAssigned) {
		t.Fatalf("restore over a squatted page: %v", err)
	}
	for _, victim := range []uint32{2, 3} {
		if got := b.rmp.AssignedPages(victim); got != 0 {
			t.Errorf("ASID %d keeps %d pages after its failed start", victim, got)
		}
		if _, err := b.sp.GuestRequestReport(victim, 0, nil); !errors.Is(err, ErrGuestNotLaunched) {
			t.Errorf("ASID %d still has a launch context: %v", victim, err)
		}
	}
}
