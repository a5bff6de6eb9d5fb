package tdx

import (
	"context"
	"errors"
	"testing"

	"confbench/internal/meter"
	"confbench/internal/tee"
)

func buildTD(t *testing.T, m *Module, pages int) uint64 {
	t.Helper()
	id, err := m.TDHMngCreate()
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := m.TDHMngInit(id, 0x10, 0xe7); err != nil {
		t.Fatalf("init: %v", err)
	}
	for i := 0; i < pages; i++ {
		if err := m.TDHMemPageAdd(id, uint64(i)*PageSize, []byte{byte(i)}); err != nil {
			t.Fatalf("page add %d: %v", i, err)
		}
	}
	if err := m.TDHMrFinalize(id); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if err := m.TDHVPEnter(id); err != nil {
		t.Fatalf("enter: %v", err)
	}
	return id
}

func TestTDLifecycle(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 4)
	if err := m.TDHMngRemove(id); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := m.TDGMrReport(id, nil); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("report after remove: %v", err)
	}
}

func TestEnterBeforeFinalizeFails(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id, _ := m.TDHMngCreate()
	if err := m.TDHMngInit(id, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.TDHVPEnter(id); !errors.Is(err, ErrBadState) {
		t.Errorf("enter before finalize: %v", err)
	}
}

func TestPageAddAfterFinalizeFails(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 1)
	if err := m.TDHMemPageAdd(id, 64*PageSize, []byte{1}); !errors.Is(err, ErrBadState) {
		t.Errorf("page add after finalize: %v", err)
	}
}

func TestDuplicatePageAddFails(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id, _ := m.TDHMngCreate()
	_ = m.TDHMngInit(id, 0, 0)
	if err := m.TDHMemPageAdd(id, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.TDHMemPageAdd(id, 0, []byte{2}); !errors.Is(err, ErrPageAdded) {
		t.Errorf("duplicate add: %v", err)
	}
}

func TestUnalignedPageAddFails(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id, _ := m.TDHMngCreate()
	_ = m.TDHMngInit(id, 0, 0)
	if err := m.TDHMemPageAdd(id, 123, []byte{1}); err == nil {
		t.Error("unaligned gpa should fail")
	}
}

func TestMRTDDependsOnContentAndOrder(t *testing.T) {
	build := func(contents [][]byte) [MeasurementSize]byte {
		m := NewModule(CurrentFirmware, 1)
		id, _ := m.TDHMngCreate()
		_ = m.TDHMngInit(id, 0, 0)
		for i, c := range contents {
			_ = m.TDHMemPageAdd(id, uint64(i)*PageSize, c)
		}
		_ = m.TDHMrFinalize(id)
		td, _ := m.get(id)
		return td.mrtd
	}
	a := build([][]byte{{1}, {2}})
	b := build([][]byte{{1}, {3}})
	c := build([][]byte{{2}, {1}})
	same := build([][]byte{{1}, {2}})
	if a == b {
		t.Error("different content, same MRTD")
	}
	if a == c {
		t.Error("different order, same MRTD")
	}
	if a != same {
		t.Error("identical builds should produce identical MRTD")
	}
}

func TestReportMACVerification(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 2)
	nonce := []byte("challenge-nonce")
	r, err := m.TDGMrReport(id, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if !m.VerifyReportMAC(r) {
		t.Error("genuine report MAC rejected")
	}
	// Tampering with the report data must break the MAC.
	r.ReportData[0] ^= 0xff
	if m.VerifyReportMAC(r) {
		t.Error("tampered report MAC accepted")
	}
	// Another module (different key) must reject the report.
	other := NewModule(CurrentFirmware, 99)
	r.ReportData[0] ^= 0xff // restore
	if other.VerifyReportMAC(r) {
		t.Error("foreign module accepted report")
	}
	if other.VerifyReportMAC(nil) {
		t.Error("nil report accepted")
	}
}

func TestReportDataTooLarge(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 1)
	if _, err := m.TDGMrReport(id, make([]byte, 65)); !errors.Is(err, ErrReportDataSize) {
		t.Errorf("oversized report data: %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 1)
	r, _ := m.TDGMrReport(id, []byte("x"))
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.MRTD != r.MRTD || back.MAC != r.MAC || back.TeeTcbSvn != r.TeeTcbSvn {
		t.Error("round trip mismatch")
	}
	if !m.VerifyReportMAC(back) {
		t.Error("MAC broken by serialization")
	}
}

func TestReportRTMRsZeroAndBound(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 2)
	r, err := m.TDGMrReport(id, []byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	// No runtime leaf extends an RTMR, so every register reads zero.
	for i, rtmr := range r.RTMRs {
		if rtmr != ([MeasurementSize]byte{}) {
			t.Errorf("RTMR[%d] = %x, want zero", i, rtmr)
		}
	}
	// The registers keep their place in the MAC'd layout: a report
	// claiming a nonzero RTMR no longer verifies.
	r.RTMRs[2][0] = 1
	if m.VerifyReportMAC(r) {
		t.Error("MAC still verifies after an RTMR was altered")
	}
}

func TestLeavesRejectUnknownTD(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	const id = 42
	if err := m.TDHMngInit(id, 0, 0); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("init: %v", err)
	}
	if err := m.TDHMemPageAdd(id, 0, nil); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("page add: %v", err)
	}
	if err := m.TDHMrFinalize(id); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("finalize: %v", err)
	}
	if err := m.TDHVPEnter(id); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("enter: %v", err)
	}
	if _, err := m.TDHExportMem(id); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("export: %v", err)
	}
	if err := m.TDHMngRemove(id); !errors.Is(err, ErrTDNotFound) {
		t.Errorf("remove: %v", err)
	}
}

func TestInitAndFinalizeOnlyOnce(t *testing.T) {
	m := NewModule(CurrentFirmware, 1)
	id := buildTD(t, m, 1)
	if err := m.TDHMngInit(id, 0, 0); !errors.Is(err, ErrBadState) {
		t.Errorf("second init: %v", err)
	}
	if err := m.TDHMrFinalize(id); !errors.Is(err, ErrBadState) {
		t.Errorf("finalize of a running TD: %v", err)
	}
	// Re-entering a running TD is the normal VM-exit return path.
	if err := m.TDHVPEnter(id); err != nil {
		t.Errorf("re-enter running TD: %v", err)
	}
}

func TestTDStateString(t *testing.T) {
	want := map[TDState]string{
		TDCreated:     "created",
		TDInitialized: "initialized",
		TDMemAdding:   "mem-adding",
		TDFinalized:   "finalized",
		TDRunning:     "running",
		TDState(9):    "state(9)",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("TDState(%d).String() = %q, want %q", int(s), got, name)
		}
	}
}

func TestFirmwareSVN(t *testing.T) {
	if tcbSvnForVersion(CurrentFirmware) <= tcbSvnForVersion(BuggyFirmware) {
		t.Error("upgrade must raise the TCB SVN")
	}
}

func TestBackendLaunchPair(t *testing.T) {
	b, err := NewBackend(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != tee.KindTDX {
		t.Errorf("kind = %v", b.Kind())
	}
	secure, err := b.Launch(tee.GuestConfig{Name: "g", MemoryMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer secure.Destroy()
	normal, err := b.LaunchNormal(tee.GuestConfig{Name: "g", MemoryMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer normal.Destroy()
	if !secure.Secure() || normal.Secure() {
		t.Error("secure flags wrong")
	}
	if secure.BootCost() <= normal.BootCost() {
		t.Error("TD boot should cost more than plain VM boot")
	}
	if _, err := secure.AttestationReport(context.Background(), []byte("n")); err != nil {
		t.Errorf("TD attestation: %v", err)
	}
}

func TestBackendSecureCostsMore(t *testing.T) {
	b, _ := NewBackend(Options{Seed: 1})
	secure, _ := b.Launch(tee.GuestConfig{MemoryMB: 8})
	defer secure.Destroy()
	normal, _ := b.LaunchNormal(tee.GuestConfig{MemoryMB: 8})
	defer normal.Destroy()

	u := meter.Usage{meter.IOWriteBytes: 8 << 20, meter.Syscalls: 4000}
	base := b.HostProfile().Cost(u)
	var sSum, nSum float64
	for i := 0; i < 20; i++ {
		key := tee.NewKey("io").Num(uint64(i))
		sSum += secure.Price(u, base, key).Total.Seconds()
		nSum += normal.Price(u, base, key).Total.Seconds()
	}
	if sSum <= nSum {
		t.Errorf("I/O-heavy work should cost more in the TD: %v vs %v", sSum, nSum)
	}
}

func TestBuggyFirmwarePenalty(t *testing.T) {
	good, _ := NewBackend(Options{Seed: 1})
	bad, _ := NewBackend(Options{Seed: 1, FirmwareVersion: BuggyFirmware})
	u := meter.Usage{meter.CPUOps: 10_000_000, meter.BytesTouched: 1 << 20}
	base := good.HostProfile().Cost(u)

	gGuest, _ := good.Launch(tee.GuestConfig{MemoryMB: 4})
	defer gGuest.Destroy()
	bGuest, _ := bad.Launch(tee.GuestConfig{MemoryMB: 4})
	defer bGuest.Destroy()

	g := gGuest.Price(u, base, tee.NewKey("cpu")).Total.Seconds()
	bv := bGuest.Price(u, base, tee.NewKey("cpu")).Total.Seconds()
	if ratio := bv / g; ratio < 7 || ratio > 13 {
		t.Errorf("buggy firmware ratio = %.1f, want ≈10", ratio)
	}
}
