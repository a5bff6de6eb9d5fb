package container

import (
	"context"
	"testing"

	"confbench/internal/faas"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

func wrapped(t *testing.T) *Backend {
	t.Helper()
	inner, err := tdx.NewBackend(tdx.Options{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(inner)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBackendMetadata(t *testing.T) {
	b := wrapped(t)
	if b.Kind() != tee.KindTDX {
		t.Errorf("kind = %v", b.Kind())
	}
	if b.Name() == "" || b.HostProfile().Name == "" {
		t.Error("metadata incomplete")
	}
	if b.Inner().Kind() != tee.KindTDX {
		t.Error("inner lost")
	}
}

func TestNewBackendValidation(t *testing.T) {
	if _, err := NewBackend(nil); err == nil {
		t.Error("nil inner accepted")
	}
}

func TestContainerBootsAndAttests(t *testing.T) {
	b := wrapped(t)
	g, err := b.Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Destroy()
	if !g.Secure() {
		t.Error("confidential container not secure")
	}
	// Attestation flows through the pod VM's TD.
	if ev, err := g.AttestationReport(context.Background(), []byte("n")); err != nil || len(ev) == 0 {
		t.Errorf("attest: %v", err)
	}
	// The container stack adds startup on top of the pod VM's boot.
	pod, err := b.Inner().Launch(tee.GuestConfig{MemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pod.Destroy()
	if g.BootCost() <= pod.BootCost() {
		t.Errorf("container boot %v should exceed pod VM boot %v", g.BootCost(), pod.BootCost())
	}
}

func TestContainersUnpracticalForIO(t *testing.T) {
	// §V: serverless in confidential containers has "unpractical
	// results". The confidential-container/plain-container ratio on
	// I/O work must clearly exceed the confidential-VM/normal-VM
	// ratio on the same host.
	b := wrapped(t)
	ratioFor := func(backend tee.Backend) float64 {
		pair, err := vm.NewPair(backend, tee.GuestConfig{MemoryMB: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer pair.Stop()
		fn := faas.Function{Name: "f", Language: "go", Workload: "iostress"}
		var s, n float64
		for i := 0; i < 4; i++ {
			sr, err := pair.Secure.InvokeFunction(context.Background(), fn, 2)
			if err != nil {
				t.Fatal(err)
			}
			nr, err := pair.Normal.InvokeFunction(context.Background(), fn, 2)
			if err != nil {
				t.Fatal(err)
			}
			s += sr.Wall.Seconds()
			n += nr.Wall.Seconds()
		}
		return s / n
	}
	vmRatio := ratioFor(b.Inner())
	containerRatio := ratioFor(b)
	// The plain container also pays the stack, so the pure ratio can
	// be close; the *absolute* confidential-container time is what
	// becomes unpractical. Check both views.
	if containerRatio < 1.0 {
		t.Errorf("container ratio = %.2f", containerRatio)
	}
	pairVM, err := vm.NewPair(b.Inner(), tee.GuestConfig{MemoryMB: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pairVM.Stop()
	pairCC, err := vm.NewPair(b, tee.GuestConfig{MemoryMB: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pairCC.Stop()
	fn := faas.Function{Name: "f", Language: "go", Workload: "iostress"}
	ccRes, err := pairCC.Secure.InvokeFunction(context.Background(), fn, 2)
	if err != nil {
		t.Fatal(err)
	}
	vmRes, err := pairVM.Secure.InvokeFunction(context.Background(), fn, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ccRes.Wall.Seconds() < 1.8*vmRes.Wall.Seconds() {
		t.Errorf("confidential container I/O (%v) should far exceed confidential VM (%v); vm ratio %.2f",
			ccRes.Wall, vmRes.Wall, vmRatio)
	}
}
