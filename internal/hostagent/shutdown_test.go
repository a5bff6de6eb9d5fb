package hostagent

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/tee"
)

// slowLaunchBackend is a minimal tee.Backend whose launches past
// blockAfter park on gate — pinning the pool's refill goroutine
// inside create() for as long as a test needs.
type slowLaunchBackend struct {
	mu         sync.Mutex
	launches   int
	blockAfter int
	gate       chan struct{}
	guests     []*tee.ModelGuest
}

func (b *slowLaunchBackend) Kind() tee.Kind                { return tee.KindSEV }
func (b *slowLaunchBackend) Name() string                  { return "slow-launch stub" }
func (b *slowLaunchBackend) HostProfile() cpumodel.Profile { return cpumodel.EPYC9124 }

func (b *slowLaunchBackend) Launch(cfg tee.GuestConfig) (tee.Guest, error) {
	b.mu.Lock()
	b.launches++
	block := b.launches > b.blockAfter
	b.mu.Unlock()
	if block {
		<-b.gate
	}
	g := tee.NewModelGuest(tee.ModelGuestConfig{
		IDPrefix: "slow", Kind: tee.KindSEV, Secure: true, Model: tee.NormalCostModel(),
		BootBase: time.Millisecond,
	})
	b.mu.Lock()
	b.guests = append(b.guests, g)
	b.mu.Unlock()
	return g, nil
}

func (b *slowLaunchBackend) LaunchNormal(cfg tee.GuestConfig) (tee.Guest, error) {
	return b.Launch(cfg)
}

// leakedGuests counts launched guests never destroyed.
func (b *slowLaunchBackend) leakedGuests() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.guests {
		if !g.Destroyed() {
			n++
		}
	}
	return n
}

// TestShutdownDestroysIdleOnExpiredContext is the regression test for
// the warm-guest leak: Shutdown used to return as soon as its context
// expired while the refill goroutine was still mid-create, without
// destroying the idle guests — and since the pool was already marked
// closed, a second Shutdown was a no-op, so the idle guests leaked
// forever. Shutdown must destroy the idle set even when it gives up
// waiting for the refill goroutine.
func TestShutdownDestroysIdleOnExpiredContext(t *testing.T) {
	// Prefill (2 launches) proceeds; the refill triggered below blocks.
	backend := &slowLaunchBackend{blockAfter: 2, gate: make(chan struct{})}
	pool, err := NewGuestPool(GuestPoolConfig{
		Backend: backend,
		Guest:   tee.GuestConfig{Name: "leaky", MemoryMB: 2},
		High:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.low = 2 // so the one Acquire below dips under it

	// Dip below the low watermark so the refill goroutine wakes up and
	// parks inside the stub's blocked Launch.
	leased, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		backend.mu.Lock()
		blocked := backend.launches > backend.blockAfter
		backend.mu.Unlock()
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refill goroutine never reached the blocked launch")
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown with a context that expires while the refill goroutine
	// is stuck. The wait must time out, but the idle guest must still
	// be destroyed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	serr := pool.Shutdown(ctx)
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("shutdown error %v, want DeadlineExceeded in the chain", serr)
	}
	if pool.Idle() != 0 {
		t.Errorf("idle %d after shutdown", pool.Idle())
	}

	// Unblock the parked launch and let the refill goroutine notice the
	// closed pool and destroy its own creation.
	close(backend.gate)
	_ = leased.Destroy()
	for time.Now().Before(deadline) {
		if backend.leakedGuests() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := backend.leakedGuests(); n != 0 {
		t.Errorf("%d warm guests leaked after shutdown", n)
	}

	// A second Shutdown on the closed pool stays a clean no-op.
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}
