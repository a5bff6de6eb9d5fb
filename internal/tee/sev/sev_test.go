package sev

import (
	"context"
	"errors"
	"testing"

	"confbench/internal/meter"
	"confbench/internal/tee"
)

func TestRMPSingleOwnerInvariant(t *testing.T) {
	r := NewRMP()
	const pa = 4096
	if err := r.Assign(pa, 1); err != nil {
		t.Fatal(err)
	}
	// Re-assigning an owned page (the remapping attack) must fail.
	if err := r.Assign(pa, 2); !errors.Is(err, ErrPageAssigned) {
		t.Errorf("reassign: %v", err)
	}
	if n := r.ReclaimAll(1); n != 1 {
		t.Fatalf("reclaimed %d pages, want 1", n)
	}
	if err := r.Assign(pa, 2); err != nil {
		t.Errorf("assign after reclaim: %v", err)
	}
}

func TestRMPValidateOnce(t *testing.T) {
	r := NewRMP()
	const pa = 8192
	_ = r.Assign(pa, 1)
	if err := r.Validate(pa, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(pa, 1); !errors.Is(err, ErrDoubleValidate) {
		t.Errorf("double validate: %v", err)
	}
}

func TestRMPValidateWrongOwner(t *testing.T) {
	r := NewRMP()
	_ = r.Assign(4096, 1)
	if err := r.Validate(4096, 2); !errors.Is(err, ErrWrongOwner) {
		t.Errorf("wrong owner validate: %v", err)
	}
}

func TestRMPReclaimAll(t *testing.T) {
	r := NewRMP()
	for i := 0; i < 5; i++ {
		_ = r.Assign(uint64(i)*PageSize+PageSize, 7)
	}
	_ = r.Assign(100*PageSize, 8)
	if n := r.ReclaimAll(7); n != 5 {
		t.Errorf("reclaimed %d, want 5", n)
	}
	if r.AssignedPages(7) != 0 || r.AssignedPages(8) != 1 {
		t.Error("reclaim-all removed wrong pages")
	}
}

func TestRMPRejectsBadRequests(t *testing.T) {
	r := NewRMP()
	if err := r.Assign(PageSize+1, 1); err == nil {
		t.Error("unaligned assign accepted")
	}
	if err := r.Assign(PageSize, 0); err == nil {
		t.Error("assign to hypervisor ASID 0 accepted")
	}
	if err := r.Validate(PageSize+1, 1); err == nil {
		t.Error("unaligned validate accepted")
	}
	if err := r.Validate(PageSize, 1); !errors.Is(err, ErrPageNotAssigned) {
		t.Errorf("validate of unassigned page: %v", err)
	}
	if r.AssignedPages(1) != 0 {
		t.Error("a rejected request left a page assigned")
	}
}

func TestRMPReclaimDropsValidation(t *testing.T) {
	r := NewRMP()
	const pa = 3 * PageSize
	_ = r.Assign(pa, 1)
	if err := r.Validate(pa, 1); err != nil {
		t.Fatal(err)
	}
	r.ReclaimAll(1)
	// A reclaimed page comes back unvalidated, so the new owner must
	// PVALIDATE it afresh rather than inherit the old mapping.
	if err := r.Assign(pa, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(pa, 1); err != nil {
		t.Errorf("validate after reclaim: %v", err)
	}
}

func TestLaunchMeasurementFlow(t *testing.T) {
	sp, err := NewAMDSP(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.LaunchStart(1, 0x30000); err != nil {
		t.Fatal(err)
	}
	if err := sp.LaunchUpdate(1, []byte("kernel")); err != nil {
		t.Fatal(err)
	}
	digest, err := sp.LaunchFinish(1)
	if err != nil {
		t.Fatal(err)
	}
	var zero [MeasurementSize]byte
	if digest == zero {
		t.Error("launch digest is zero")
	}
	// Updates after finish must fail.
	if err := sp.LaunchUpdate(1, []byte("late")); !errors.Is(err, ErrLaunchFinished) {
		t.Errorf("late update: %v", err)
	}
}

func TestLaunchMeasurementDeterministic(t *testing.T) {
	build := func(parts ...string) [MeasurementSize]byte {
		sp, _ := NewAMDSP(1)
		_ = sp.LaunchStart(1, 0)
		for _, p := range parts {
			_ = sp.LaunchUpdate(1, []byte(p))
		}
		d, _ := sp.LaunchFinish(1)
		return d
	}
	if build("a", "b") != build("a", "b") {
		t.Error("same inputs, different measurement")
	}
	if build("a", "b") == build("b", "a") {
		t.Error("order must matter")
	}
}

func TestReportBeforeFinishFails(t *testing.T) {
	sp, _ := NewAMDSP(1)
	_ = sp.LaunchStart(1, 0)
	if _, err := sp.GuestRequestReport(1, 0, nil); !errors.Is(err, ErrLaunchNotDone) {
		t.Errorf("report before finish: %v", err)
	}
	if _, err := sp.GuestRequestReport(9, 0, nil); !errors.Is(err, ErrGuestNotLaunched) {
		t.Errorf("report unknown guest: %v", err)
	}
}

func TestReportSignedAndBound(t *testing.T) {
	sp, _ := NewAMDSP(1)
	_ = sp.LaunchStart(1, 0x30000)
	_ = sp.LaunchUpdate(1, []byte("image"))
	digest, _ := sp.LaunchFinish(1)

	r, err := sp.GuestRequestReport(1, 0, []byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measurement != digest {
		t.Error("report measurement != launch digest")
	}
	if len(r.SignatureR) == 0 || len(r.SignatureS) == 0 {
		t.Error("report unsigned")
	}
	if string(r.ReportData[:5]) != "nonce" {
		t.Error("nonce not bound")
	}
	if _, err := sp.GuestRequestReport(1, 0, make([]byte, 100)); !errors.Is(err, ErrReportData) {
		t.Errorf("oversized report data: %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	sp, _ := NewAMDSP(1)
	_ = sp.LaunchStart(1, 0)
	_, _ = sp.LaunchFinish(1)
	r, _ := sp.GuestRequestReport(1, 0, []byte("x"))
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Measurement != r.Measurement || string(back.SignatureR) != string(r.SignatureR) {
		t.Error("round trip mismatch")
	}
}

func TestCertChainProvisioned(t *testing.T) {
	sp, _ := NewAMDSP(1)
	chain := sp.CertChainCopy()
	if len(chain.VCEK) == 0 || len(chain.ASK) == 0 || len(chain.ARK) == 0 {
		t.Fatal("incomplete chain")
	}
	// The copy must be independent.
	chain.VCEK[0] ^= 0xff
	if sp.CertChainCopy().VCEK[0] == chain.VCEK[0] {
		t.Error("CertChainCopy shares memory")
	}
}

func TestTCBEncode(t *testing.T) {
	tcb := TCBVersion{Bootloader: 4, TEE: 1, SNPFw: 21, Microcode: 209}
	enc := tcb.Encode()
	if enc == 0 {
		t.Error("encoded TCB is zero")
	}
	if byte(enc) != 4 || byte(enc>>56) != 209 {
		t.Errorf("encoding layout wrong: %#x", enc)
	}
}

func TestBackendLifecycle(t *testing.T) {
	b, err := NewBackend(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != tee.KindSEV {
		t.Errorf("kind = %v", b.Kind())
	}
	g, err := b.Launch(tee.GuestConfig{Name: "snp-guest", MemoryMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.ReverseMap().AssignedPages(1); got != 8 {
		t.Errorf("RMP pages = %d, want 8", got)
	}
	ev, err := g.AttestationReport(context.Background(), []byte("n"))
	if err != nil || len(ev) == 0 {
		t.Fatalf("attest: %v", err)
	}
	if err := g.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := b.ReverseMap().AssignedPages(1); got != 0 {
		t.Errorf("pages not reclaimed on destroy: %d", got)
	}
}

func TestBackendIOCheaperThanTDXProfile(t *testing.T) {
	// SEV's I/O factors must stay below TDX-class bounce-buffer costs.
	b, _ := NewBackend(Options{Seed: 1})
	cm := b.CostModel()
	if cm.IOReadFactor >= 2.0 || cm.IOWriteFactor >= 2.0 {
		t.Errorf("SEV I/O factors too high: %v/%v", cm.IOReadFactor, cm.IOWriteFactor)
	}
	if cm.CPUFactor <= 1.0 {
		t.Error("secure CPU factor must exceed 1")
	}
}

func TestBackendPricesSecureAboveNormalForSyscallWork(t *testing.T) {
	b, _ := NewBackend(Options{Seed: 3})
	s, _ := b.Launch(tee.GuestConfig{MemoryMB: 4})
	defer s.Destroy()
	n, _ := b.LaunchNormal(tee.GuestConfig{MemoryMB: 4})
	defer n.Destroy()
	u := meter.Usage{meter.ContextSwitches: 10_000, meter.Syscalls: 20_000}
	base := b.HostProfile().Cost(u)
	var sSum, nSum float64
	for i := 0; i < 20; i++ {
		key := tee.NewKey("sched").Num(uint64(i))
		sSum += s.Price(u, base, key).Total.Seconds()
		nSum += n.Price(u, base, key).Total.Seconds()
	}
	if sSum <= nSum {
		t.Errorf("scheduler-heavy work should cost more in SNP guest: %v vs %v", sSum, nSum)
	}
}
