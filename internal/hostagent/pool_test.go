package hostagent

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/sev"
	"confbench/internal/vm"
)

func newTestPool(t *testing.T, plane *faultplane.Plane, high int, reg *obs.Registry) *GuestPool {
	t.Helper()
	backend, err := sev.NewBackend(sev.Options{Seed: 42, Obs: reg, Faults: plane})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewGuestPool(GuestPoolConfig{
		Backend: backend,
		Guest:   tee.GuestConfig{Name: "pool-host", MemoryMB: 2},
		Cache:   vm.NewSnapshotCache(64<<20, reg),
		High:    high,
		Obs:     reg,
		Faults:  plane,
		Host:    "pool-host",
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestGuestPoolInvariants hammers the pool with concurrent
// acquire/release cycles while a seeded fault plane crashes a fifth of
// the restores, and checks the pool's core invariants: no guest is
// leased twice at once, the idle count never exceeds the high
// watermark, the pool refills into [low, high] after quiescence, and
// the refill goroutine does not leak. Run under -race.
func TestGuestPoolInvariants(t *testing.T) {
	plane := faultplane.New(99)
	if err := plane.Register(faultplane.Spec{
		Point: faultplane.PointSnapshotRestore, Kind: faultplane.KindCrash, Probability: 0.2,
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	before := runtime.NumGoroutine()
	const low, high = 2, 4 // the default low watermark of high 4
	pool := newTestPool(t, plane, high, reg)

	var mu sync.Mutex
	held := make(map[string]bool)

	const goroutines, cycles = 20, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				guest, err := pool.Acquire()
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				mu.Lock()
				if held[guest.ID()] {
					t.Errorf("guest %s double-leased", guest.ID())
				}
				held[guest.ID()] = true
				mu.Unlock()
				if idle := pool.Idle(); idle > high {
					t.Errorf("idle %d above high watermark %d", idle, high)
				}
				mu.Lock()
				delete(held, guest.ID())
				mu.Unlock()
				// Half the guests die in service — their releases drop
				// them from the pool and keep restore traffic (and its
				// injected crashes) flowing.
				if (g+i)%2 == 0 {
					_ = guest.Destroy()
				}
				pool.Release(guest)
			}
		}(g)
	}
	wg.Wait()

	// After quiescence the refill goroutine must bring idle back into
	// the watermark band.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if idle := pool.Idle(); idle >= low && idle <= high {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle %d outside [%d, %d] after quiescence", pool.Idle(), low, high)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leased := pool.Leased(); leased != 0 {
		t.Errorf("%d guests still leased after all releases", leased)
	}

	// Crashed restores fell back to cold launches and hits still
	// happened — the fault plane was actually exercised.
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricID("confbench_warm_fallbacks_total", "tee", "sev-snp")]; got == 0 {
		t.Error("no warm fallbacks despite 20% crash probability")
	}
	if got := snap.Counters[obs.MetricID("confbench_warm_hits_total", "tee", "sev-snp")]; got == 0 {
		t.Error("no warm hits")
	}

	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := pool.Acquire(); err == nil {
		t.Error("acquire after shutdown succeeded")
	}

	// The refill goroutine must be gone; allow the runtime a moment to
	// park exiting goroutines.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGuestPoolWatermarkDefaults pins the low watermark of (High+1)/2
// and rejection of a nil backend.
func TestGuestPoolWatermarkDefaults(t *testing.T) {
	pool := newTestPool(t, nil, 5, obs.New())
	defer pool.Shutdown(context.Background())
	low, high := pool.Watermarks()
	if low != 3 || high != 5 {
		t.Errorf("watermarks = (%d, %d), want (3, 5)", low, high)
	}
	if pool.Idle() != high {
		t.Errorf("prefill idle = %d, want %d", pool.Idle(), high)
	}
	if _, err := NewGuestPool(GuestPoolConfig{}); err == nil {
		t.Error("nil backend accepted")
	}
}

// TestGuestPoolReleaseSemantics pins the Release edge cases: unknown
// guests are ignored, destroyed guests are dropped from the pool, and
// a full pool destroys rather than exceeds the high watermark.
func TestGuestPoolReleaseSemantics(t *testing.T) {
	pool := newTestPool(t, nil, 2, obs.New())
	defer pool.Shutdown(context.Background())

	backend, err := sev.NewBackend(sev.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := backend.Launch(tee.GuestConfig{Name: "foreign", MemoryMB: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(foreign) // never leased: no-op
	if pool.Idle() != 2 {
		t.Errorf("foreign release changed idle to %d", pool.Idle())
	}
	pool.Release(nil)

	guest, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Destroy(); err != nil {
		t.Fatal(err)
	}
	pool.Release(guest)
	if pool.Leased() != 0 {
		t.Error("destroyed guest still leased after release")
	}
	for _, g := range pool.idleSnapshot() {
		if g.ID() == guest.ID() {
			t.Error("destroyed guest returned to idle")
		}
	}
}

// idleSnapshot copies the idle slice for test inspection.
func (p *GuestPool) idleSnapshot() []tee.Guest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]tee.Guest(nil), p.idle...)
}
