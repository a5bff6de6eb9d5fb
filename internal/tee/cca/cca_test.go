package cca

import (
	"context"
	"errors"
	"testing"

	"confbench/internal/meter"
	"confbench/internal/tee"
)

func TestGranuleDelegation(t *testing.T) {
	m := NewRMM()
	const pa = GranuleSize
	if err := m.RMIGranuleDelegate(pa); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIGranuleDelegate(pa); !errors.Is(err, ErrGranuleDelegated) {
		t.Errorf("double delegate: %v", err)
	}
	if err := m.RMIGranuleUndelegate(pa); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIGranuleUndelegate(pa); !errors.Is(err, ErrGranuleUndelegated) {
		t.Errorf("double undelegate: %v", err)
	}
}

func TestGranuleUnalignedRejected(t *testing.T) {
	m := NewRMM()
	if err := m.RMIGranuleDelegate(123); err == nil {
		t.Error("unaligned granule accepted")
	}
}

func TestRealmLifecycle(t *testing.T) {
	m := NewRMM()
	id, err := m.RMIRealmCreate([]byte("rpv"))
	if err != nil {
		t.Fatal(err)
	}
	const pa = GranuleSize
	if err := m.RMIGranuleDelegate(pa); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIDataCreate(id, pa, []byte("image")); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIRealmActivate(id); err != nil {
		t.Fatal(err)
	}
	// Data create after activation is illegal.
	if err := m.RMIGranuleDelegate(2 * GranuleSize); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIDataCreate(id, 2*GranuleSize, []byte("late")); !errors.Is(err, ErrRealmState) {
		t.Errorf("late data create: %v", err)
	}
	if err := m.RMIRealmDestroy(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RealmByID(id); !errors.Is(err, ErrRealmNotFound) {
		t.Errorf("realm survives destroy: %v", err)
	}
}

func TestDataCreateRequiresDelegatedGranule(t *testing.T) {
	m := NewRMM()
	id, _ := m.RMIRealmCreate(nil)
	if err := m.RMIDataCreate(id, GranuleSize, []byte("x")); !errors.Is(err, ErrGranuleUndelegated) {
		t.Errorf("undelegated data create: %v", err)
	}
}

func TestGranuleCannotLeaveRealmWorldWhileInUse(t *testing.T) {
	m := NewRMM()
	id, _ := m.RMIRealmCreate(nil)
	const pa = GranuleSize
	_ = m.RMIGranuleDelegate(pa)
	_ = m.RMIDataCreate(id, pa, []byte("x"))
	if err := m.RMIGranuleUndelegate(pa); !errors.Is(err, ErrGranuleInUse) {
		t.Errorf("undelegate in-use granule: %v", err)
	}
	_ = m.RMIRealmDestroy(id)
	if err := m.RMIGranuleUndelegate(pa); err != nil {
		t.Errorf("undelegate after destroy: %v", err)
	}
}

func TestGranuleCannotServeTwoRealms(t *testing.T) {
	m := NewRMM()
	id1, _ := m.RMIRealmCreate([]byte("a"))
	id2, _ := m.RMIRealmCreate([]byte("b"))
	const pa = GranuleSize
	_ = m.RMIGranuleDelegate(pa)
	if err := m.RMIDataCreate(id1, pa, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIDataCreate(id2, pa, []byte("y")); !errors.Is(err, ErrGranuleInUse) {
		t.Errorf("shared granule: %v", err)
	}
}

func TestRIMDependsOnContentAndRPV(t *testing.T) {
	build := func(rpv string, contents ...string) [MeasurementSize]byte {
		m := NewRMM()
		id, _ := m.RMIRealmCreate([]byte(rpv))
		for i, c := range contents {
			pa := uint64(i+1) * GranuleSize
			_ = m.RMIGranuleDelegate(pa)
			_ = m.RMIDataCreate(id, pa, []byte(c))
		}
		_ = m.RMIRealmActivate(id)
		r, _ := m.RealmByID(id)
		return r.RIM()
	}
	if build("p", "a") == build("p", "b") {
		t.Error("different content, same RIM")
	}
	if build("p", "a") == build("q", "a") {
		t.Error("different RPV, same RIM")
	}
	if build("p", "a", "b") != build("p", "a", "b") {
		t.Error("identical builds differ")
	}
}

func TestRSIRequiresActiveRealm(t *testing.T) {
	m := NewRMM()
	id, _ := m.RMIRealmCreate(nil)
	if _, err := m.RSIMeasurementRead(id); !errors.Is(err, ErrRealmState) {
		t.Errorf("measurement read before activate: %v", err)
	}
	_ = m.RMIRealmActivate(id)
	if _, err := m.RSIMeasurementRead(id); err != nil {
		t.Fatal(err)
	}
}

func TestLeavesRejectUnknownRealm(t *testing.T) {
	m := NewRMM()
	const id = 99
	if err := m.RMIGranuleDelegate(GranuleSize); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIDataCreate(id, GranuleSize, nil); !errors.Is(err, ErrRealmNotFound) {
		t.Errorf("data create: %v", err)
	}
	if err := m.RMIRealmActivate(id); !errors.Is(err, ErrRealmNotFound) {
		t.Errorf("activate: %v", err)
	}
	if _, err := m.RSIMeasurementRead(id); !errors.Is(err, ErrRealmNotFound) {
		t.Errorf("measurement read: %v", err)
	}
	if err := m.RMIRealmDestroy(id); !errors.Is(err, ErrRealmNotFound) {
		t.Errorf("destroy: %v", err)
	}
}

func TestRealmActivatesOnceAndDestroyFreesGranules(t *testing.T) {
	m := NewRMM()
	id, _ := m.RMIRealmCreate([]byte("r"))
	const pa = GranuleSize
	_ = m.RMIGranuleDelegate(pa)
	if err := m.RMIDataCreate(id, pa, []byte("image")); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIRealmActivate(id); err != nil {
		t.Fatal(err)
	}
	if err := m.RMIRealmActivate(id); !errors.Is(err, ErrRealmState) {
		t.Errorf("second activate: %v", err)
	}
	if err := m.RMIRealmDestroy(id); err != nil {
		t.Fatal(err)
	}
	// Destroy detaches the granule but leaves it delegated until the
	// host undelegates it.
	if m.DelegatedGranules() != 1 {
		t.Errorf("delegated granules after destroy = %d, want 1", m.DelegatedGranules())
	}
	if err := m.RMIGranuleUndelegate(pa); err != nil {
		t.Errorf("undelegate after destroy: %v", err)
	}
}

func TestRealmStateString(t *testing.T) {
	want := map[RealmState]string{
		RealmNew:       "new",
		RealmActive:    "active",
		RealmDestroyed: "destroyed",
		RealmState(9):  "state(9)",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("RealmState(%d).String() = %q, want %q", int(s), got, name)
		}
	}
}

func TestBackendLaunch(t *testing.T) {
	b, err := NewBackend(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != tee.KindCCA {
		t.Errorf("kind = %v", b.Kind())
	}
	g, err := b.Launch(tee.GuestConfig{Name: "realm", MemoryMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Destroy()
	if b.Monitor().DelegatedGranules() != 8 {
		t.Errorf("delegated granules = %d", b.Monitor().DelegatedGranules())
	}
	// Per §IV-B the FVP lacks attestation hardware support.
	if _, err := g.AttestationReport(context.Background(), []byte("n")); !errors.Is(err, tee.ErrNoAttestation) {
		t.Errorf("CCA attestation should be unsupported, got %v", err)
	}
}

func TestRealmVariabilityExceedsBareMetal(t *testing.T) {
	b, _ := NewBackend(Options{Seed: 1})
	realm, _ := b.Launch(tee.GuestConfig{MemoryMB: 4})
	defer realm.Destroy()
	normal, _ := b.LaunchNormal(tee.GuestConfig{MemoryMB: 4})
	defer normal.Destroy()

	u := meter.Usage{meter.CPUOps: 10_000_000, meter.BytesTouched: 4 << 20}
	base := b.HostProfile().Cost(u)
	spread := func(g tee.Guest) float64 {
		lo, hi := 1e18, 0.0
		for i := 0; i < 50; i++ {
			v := g.Price(u, base, tee.NewKey("spread").Num(uint64(i))).Total.Seconds()
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return (hi - lo) / lo
	}
	// Fig. 8: secure whiskers are longer than normal ones.
	if spread(realm) <= spread(normal) {
		t.Error("realm runs should vary more than normal-VM runs")
	}
}

func TestRealmCostExceedsNormal(t *testing.T) {
	b, _ := NewBackend(Options{Seed: 2})
	realm, _ := b.Launch(tee.GuestConfig{MemoryMB: 4})
	defer realm.Destroy()
	normal, _ := b.LaunchNormal(tee.GuestConfig{MemoryMB: 4})
	defer normal.Destroy()
	u := meter.Usage{meter.Syscalls: 10_000, meter.IOWriteBytes: 4 << 20}
	base := b.HostProfile().Cost(u)
	var rSum, nSum float64
	for i := 0; i < 20; i++ {
		key := tee.NewKey("io").Num(uint64(i))
		rSum += realm.Price(u, base, key).Total.Seconds()
		nSum += normal.Price(u, base, key).Total.Seconds()
	}
	if rSum < 3*nSum {
		t.Errorf("syscall/IO work should be ≥3x in realm: %v vs %v", rSum, nSum)
	}
}
