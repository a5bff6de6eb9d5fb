package cca

import (
	"errors"
	"testing"

	"confbench/internal/tee"
)

// TestRestoredRealmIsActive pins the RMM side of a restore: the shared
// lifecycle's conformance table (internal/tee) covers what the
// restored guest measures and charges.
func TestRestoredRealmIsActive(t *testing.T) {
	b, err := NewBackend(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tee.GuestConfig{Name: "runtime", MemoryMB: 8}
	img, err := b.Snapshot(cfg)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	warm, err := b.Restore(img, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer warm.Destroy()
	// Realm IDs allocate in order: the template took 1, the restore 2.
	realm, err := b.rmm.RealmByID(2)
	if err != nil {
		t.Fatalf("restored realm: %v", err)
	}
	if realm.State() != RealmActive {
		t.Errorf("restored realm state = %s, want active", realm.State())
	}
	if realm.GranuleCount() != cfg.MemoryMB {
		t.Errorf("restored realm granules = %d, want %d", realm.GranuleCount(), cfg.MemoryMB)
	}
	if got := b.rmm.DelegatedGranules(); got != cfg.MemoryMB {
		t.Errorf("delegated granules = %d, want %d (the template's went back)", got, cfg.MemoryMB)
	}
}

func TestRMIRealmImportRejectsDelegatedGranules(t *testing.T) {
	m := NewRMM()
	if err := m.RMIGranuleDelegate(GranuleSize); err != nil {
		t.Fatal(err)
	}
	var rim [MeasurementSize]byte
	if _, err := m.RMIRealmImport(nil, rim, []uint64{GranuleSize}); !errors.Is(err, ErrGranuleDelegated) {
		t.Errorf("import over delegated granule: %v", err)
	}
	if _, err := m.RMIRealmImport(nil, rim, []uint64{GranuleSize + 1}); err == nil {
		t.Error("import with unaligned granule succeeded")
	}
}

// TestFailedBuildLeavesNothingBehind delegates a granule the next
// realm's build will reach, so the build fails part-way; the lifecycle
// must destroy the half-built realm and undelegate what it delegated.
func TestFailedBuildLeavesNothingBehind(t *testing.T) {
	b, err := NewBackend(Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The first realm's granules start right after granule 0.
	if err := b.rmm.RMIGranuleDelegate(GranuleSize * (1 + 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Launch(tee.GuestConfig{Name: "runtime", MemoryMB: 8}); !errors.Is(err, ErrGranuleDelegated) {
		t.Fatalf("launch over a delegated granule: %v", err)
	}
	if _, err := b.rmm.RealmByID(1); !errors.Is(err, ErrRealmNotFound) {
		t.Errorf("half-built realm survives: %v", err)
	}
	if got := b.rmm.DelegatedGranules(); got != 1 {
		t.Errorf("delegated granules = %d, want only the one delegated by hand", got)
	}
}
