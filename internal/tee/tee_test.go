package tee

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/faultplane"
	"confbench/internal/meter"
)

func TestKindValidity(t *testing.T) {
	for _, k := range []Kind{KindNone, KindTDX, KindSEV, KindCCA} {
		if !k.Valid() {
			t.Errorf("%q should be valid", k)
		}
	}
	if Kind("sgx").Valid() {
		t.Error("sgx should be invalid")
	}
	if KindNone.Secure() {
		t.Error("none is not secure")
	}
	if !KindTDX.Secure() || !KindSEV.Secure() || !KindCCA.Secure() {
		t.Error("TEE kinds should be secure")
	}
}

func TestGuestConfigDefaults(t *testing.T) {
	c := GuestConfig{}.WithDefaults()
	if c.MemoryMB <= 0 || c.Name == "" {
		t.Errorf("defaults not applied: %+v", c)
	}
	big := GuestConfig{MemoryMB: 1 << 20}.WithDefaults()
	if big.MemoryMB > 4096 {
		t.Errorf("memory not clamped: %d", big.MemoryMB)
	}
}

func testUsage() meter.Usage {
	return meter.Usage{
		meter.CPUOps:       1_000_000,
		meter.BytesTouched: 4 << 20,
		meter.IOReadBytes:  1 << 20,
		meter.Syscalls:     1000,
	}
}

func TestNormalCostModelIsIdentity(t *testing.T) {
	u := testUsage()
	host := cpumodel.XeonGold5515
	base := host.Cost(u)
	cm := NormalCostModel()
	cm.JitterStd = 0 // isolate the factors
	charge := cm.Apply(u, base, rand.New(rand.NewSource(1)))
	if charge.Total != base.Total() {
		t.Errorf("normal model changed cost: %v vs %v", charge.Total, base.Total())
	}
	if charge.Exits != 0 {
		t.Errorf("normal model produced %d exits", charge.Exits)
	}
}

func TestCostModelFactorsApply(t *testing.T) {
	u := meter.Usage{meter.IOReadBytes: 1 << 20}
	host := cpumodel.XeonGold5515
	base := host.Cost(u)
	cm := NormalCostModel()
	cm.IOReadFactor = 3
	cm.JitterStd = 0
	charge := cm.Apply(u, base, rand.New(rand.NewSource(1)))
	want := 3 * base.Total()
	if diff := charge.Total - want; diff < -time.Nanosecond || diff > time.Nanosecond {
		t.Errorf("io factor: got %v, want %v", charge.Total, want)
	}
}

func TestExitCharges(t *testing.T) {
	u := meter.Usage{meter.Syscalls: 1000, meter.ContextSwitches: 500}
	host := cpumodel.XeonGold5515
	base := host.Cost(u)
	cm := NormalCostModel()
	cm.JitterStd = 0
	cm.ExitNs = 10_000
	cm.ExitsPerSys = 0.5
	cm.ExitsPerSwitch = 1.0
	charge := cm.Apply(u, base, rand.New(rand.NewSource(1)))
	if charge.Exits != 1000 { // 500 from syscalls + 500 from switches
		t.Errorf("exits = %d, want 1000", charge.Exits)
	}
	wantExtra := time.Duration(1000 * 10_000)
	if got := charge.Total - base.Total(); got != wantExtra {
		t.Errorf("exit charge = %v, want %v", got, wantExtra)
	}
}

func TestPageAcceptCharges(t *testing.T) {
	u := meter.Usage{meter.PageFaults: 100}
	host := cpumodel.XeonGold5515
	base := host.Cost(u)
	cm := NormalCostModel()
	cm.JitterStd = 0
	cm.PageAcceptNs = 1000
	charge := cm.Apply(u, base, rand.New(rand.NewSource(1)))
	if got := charge.Total - base.Total(); got != 100*time.Microsecond/1 {
		t.Errorf("accept charge = %v", got)
	}
}

func TestJitterBounded(t *testing.T) {
	u := testUsage()
	host := cpumodel.XeonGold5515
	base := host.Cost(u)
	cm := NormalCostModel()
	cm.JitterStd = 0.05
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		charge := cm.Apply(u, base, rng)
		ratio := float64(charge.Total) / float64(base.Total())
		if ratio < 1-4*0.05-1e-9 || ratio > 1+4*0.05+1e-9 {
			t.Fatalf("jitter out of ±4σ bounds: %v", ratio)
		}
	}
}

func TestModelGuestLifecycle(t *testing.T) {
	g := NewModelGuest(ModelGuestConfig{
		IDPrefix: "t",
		Kind:     KindTDX,
		Secure:   true,
		Model:    NormalCostModel(),
		BootBase: time.Second,
		Report:   func(_ context.Context, nonce []byte) ([]byte, error) { return append([]byte("ev:"), nonce...), nil },
	})
	if g.ID() == "" || g.Kind() != KindTDX || !g.Secure() {
		t.Errorf("guest metadata wrong: %s %s %v", g.ID(), g.Kind(), g.Secure())
	}
	if g.BootCost() < time.Second {
		t.Errorf("boot cost %v", g.BootCost())
	}
	ev, err := g.AttestationReport(context.Background(), []byte("n"))
	if err != nil || string(ev) != "ev:n" {
		t.Errorf("report = %q, %v", ev, err)
	}
	if err := g.Destroy(); err != nil {
		t.Fatal(err)
	}
	if !g.Destroyed() {
		t.Error("not marked destroyed")
	}
	if _, err := g.AttestationReport(context.Background(), []byte("n")); !errors.Is(err, ErrGuestDestroyed) {
		t.Errorf("want ErrGuestDestroyed, got %v", err)
	}
	if err := g.Destroy(); err != nil {
		t.Error("Destroy should be idempotent")
	}
}

func TestModelGuestNonSecureAttestation(t *testing.T) {
	g := NewModelGuest(ModelGuestConfig{IDPrefix: "n", Kind: KindNone, Model: NormalCostModel()})
	if _, err := g.AttestationReport(context.Background(), nil); !errors.Is(err, ErrNotSecure) {
		t.Errorf("want ErrNotSecure, got %v", err)
	}
}

func TestModelGuestNoAttestationHardware(t *testing.T) {
	g := NewModelGuest(ModelGuestConfig{IDPrefix: "r", Kind: KindCCA, Secure: true, Model: NormalCostModel()})
	if _, err := g.AttestationReport(context.Background(), nil); !errors.Is(err, ErrNoAttestation) {
		t.Errorf("want ErrNoAttestation, got %v", err)
	}
}

// TestModelGuestFaultDegradation: TEE-layer faults have no error
// channel — an injected fault at tee.transition or tee.bounce_io
// degrades the priced virtual time instead. A faulted guest must
// charge exactly its fault-free total plus the accumulated
// FaultDelay, and must label the charge with the fault kind.
func TestModelGuestFaultDegradation(t *testing.T) {
	// A model that produces exits (arming the transition point) for
	// the syscall-heavy usage below.
	cm := NormalCostModel()
	cm.JitterStd = 0
	cm.ExitNs = 10_000
	cm.ExitsPerSys = 1

	mkGuest := func(plane *faultplane.Plane) *ModelGuest {
		return NewModelGuest(ModelGuestConfig{
			IDPrefix: "chaos",
			Kind:     KindSEV,
			Secure:   true,
			Model:    cm,
			Stream:   11,
			Faults:   plane,
			Host:     "sev-snp-host",
		})
	}

	plane := faultplane.New(3)
	const slow = 5 * time.Millisecond
	if err := plane.Register(faultplane.Spec{
		Point:       faultplane.PointTEETransition,
		Kind:        faultplane.KindLatency,
		Host:        "sev-snp-host",
		Probability: 1,
		Latency:     slow,
	}); err != nil {
		t.Fatal(err)
	}
	if err := plane.Register(faultplane.Spec{
		Point:       faultplane.PointTEEBounceIO,
		Kind:        faultplane.KindSlowIO,
		Host:        "sev-snp-host",
		Probability: 1,
		Latency:     slow,
	}); err != nil {
		t.Fatal(err)
	}

	u := meter.Usage{meter.Syscalls: 1000, meter.IOReadBytes: 1 << 20}
	base := cpumodel.XeonGold5515.Cost(u)

	clean := mkGuest(nil).Price(u, base, NewKey("chaos"))
	if clean.Fault != "" || clean.FaultDelay != 0 {
		t.Fatalf("fault-free charge carries fault: %+v", clean)
	}

	faulted := mkGuest(plane).Price(u, base, NewKey("chaos"))
	if faulted.Fault != string(faultplane.KindLatency) {
		t.Errorf("fault label = %q, want %q (first injection wins)", faulted.Fault, faultplane.KindLatency)
	}
	// Both points matched with Probability 1, so both latencies stack.
	if faulted.FaultDelay != 2*slow {
		t.Errorf("fault delay = %v, want %v", faulted.FaultDelay, 2*slow)
	}
	if faulted.Total != clean.Total+faulted.FaultDelay {
		t.Errorf("degraded total = %v, want clean %v + delay %v", faulted.Total, clean.Total, faulted.FaultDelay)
	}
	if got := len(plane.History()); got != 2 {
		t.Errorf("injections recorded = %d, want 2", got)
	}

	// A host that does not match the filter prices fault-free.
	other := NewModelGuest(ModelGuestConfig{
		IDPrefix: "other",
		Kind:     KindSEV,
		Secure:   true,
		Model:    cm,
		Stream:   11,
		Faults:   plane,
		Host:     "sev-snp-host-2",
	})
	if ch := other.Price(u, base, NewKey("chaos")); ch.Fault != "" || ch.Total != clean.Total {
		t.Errorf("unmatched host degraded: %+v (clean total %v)", ch, clean.Total)
	}
}

func TestGuestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NextGuestID("x")
		if seen[id] {
			t.Fatalf("duplicate guest id %s", id)
		}
		seen[id] = true
	}
}
