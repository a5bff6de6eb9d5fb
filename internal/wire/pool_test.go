package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"confbench/internal/cberr"
)

// poolLoads returns the in-flight count of every pooled connection to
// addr, in pool order.
func poolLoads(tr *Binary, addr string) []int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var loads []int
	for _, mc := range tr.conns[addr] {
		loads = append(loads, mc.inflight)
	}
	return loads
}

// holdCalls starts n held invokes and returns once every handler has
// entered; the channel yields each call's result after a release.
func holdCalls(ctx context.Context, tr *Binary, g *gate, addr, prefix string, n int) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("hold-%s-%d", prefix, i)
		go func() { errs <- invokeNamed(ctx, tr, addr, name) }()
		<-g.entered
	}
	return errs
}

// releaseAll lets n held handlers answer and fails on any call error.
func releaseAll(t *testing.T, g *gate, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g.release <- struct{}{}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("held call: %v", err)
		}
	}
}

// TestPoolConcurrentCallersGetOwnConnections: a second caller that
// finds the only connection busy dials its own; a third, with the pool
// full, shares one of the two, and the pool never grows past
// maxConnsPerPeer however many callers pile on.
func TestPoolConcurrentCallersGetOwnConnections(t *testing.T) {
	g := newGate()
	_, addr := listenGate(t, g)
	tr := NewBinary(nil)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errs := holdCalls(ctx, tr, g, addr, "two", 2)
	if got := poolLoads(tr, addr); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("two concurrent callers: loads %v, want [1 1] (one connection each)", got)
	}
	settle(t, "want the server to serve two connections",
		func() bool { return len(handlersPerConn()) == 2 })
	more := holdCalls(ctx, tr, g, addr, "third", 1)
	if got := poolLoads(tr, addr); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("third caller: loads %v, want [2 1] (shares, no third connection)", got)
	}
	const burst = 4 * maxConnsPerPeer
	rest := holdCalls(ctx, tr, g, addr, "burst", burst)
	loads := poolLoads(tr, addr)
	if len(loads) != maxConnsPerPeer {
		t.Fatalf("%d connections under %d held calls, want the bound %d", len(loads), burst+3, maxConnsPerPeer)
	}
	if lo, hi := slices.Min(loads), slices.Max(loads); hi-lo > 1 || lo+hi != burst+3 {
		t.Fatalf("loads %v for %d held calls: not spread least-loaded first", loads, burst+3)
	}
	releaseAll(t, g, errs, 2)
	releaseAll(t, g, more, 1)
	releaseAll(t, g, rest, burst)
	if got := poolLoads(tr, addr); !slices.Equal(got, []int{0, 0}) {
		t.Fatalf("loads %v after every call returned, want [0 0]", got)
	}
}

// TestPoolPicksLeastLoaded: with the pool full, a call takes the
// connection with the fewest calls in flight, and only while it runs.
func TestPoolPicksLeastLoaded(t *testing.T) {
	g := newGate()
	_, addr := listenGate(t, g)
	tr := NewBinary(nil)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	releaseAll(t, g, holdCalls(ctx, tr, g, addr, "fill", maxConnsPerPeer), maxConnsPerPeer)
	tr.mu.Lock()
	pool := slices.Clone(tr.conns[addr])
	pool[0].inflight, pool[1].inflight = 5, 3
	tr.mu.Unlock()

	mc, err := tr.conn(addr)
	if err != nil {
		t.Fatal(err)
	}
	if mc != pool[1] {
		t.Fatal("call took the busier connection")
	}
	if got := poolLoads(tr, addr); !slices.Equal(got, []int{5, 4}) {
		t.Fatalf("loads %v after the claim, want [5 4]", got)
	}
	tr.mu.Lock()
	mc.inflight--
	pool[0].inflight, pool[1].inflight = 0, 0
	tr.mu.Unlock()
}

// TestPoolPrunesDeadAndRedials: a dead connection leaves the pool on
// the next call, which takes the idle survivor; the call after it,
// finding the survivor busy, dials a fresh one in the dead one's place.
func TestPoolPrunesDeadAndRedials(t *testing.T) {
	g := newGate()
	_, addr := listenGate(t, g)
	tr := NewBinary(nil)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	releaseAll(t, g, holdCalls(ctx, tr, g, addr, "fill", 2), 2)
	tr.mu.Lock()
	dead, survivor := tr.conns[addr][0], tr.conns[addr][1]
	tr.mu.Unlock()
	dead.kill(errors.New("test: connection lost"))

	errs := holdCalls(ctx, tr, g, addr, "after", 1)
	tr.mu.Lock()
	pool := slices.Clone(tr.conns[addr])
	tr.mu.Unlock()
	if len(pool) != 1 || pool[0] != survivor || survivor.inflight != 1 {
		t.Fatalf("after the kill: pool %v, want only the survivor, claimed", pool)
	}
	more := holdCalls(ctx, tr, g, addr, "redial", 1)
	tr.mu.Lock()
	pool = slices.Clone(tr.conns[addr])
	tr.mu.Unlock()
	if len(pool) != 2 || slices.Contains(pool, dead) || pool[1].inflight != 1 {
		t.Fatalf("busy survivor: pool %v, want it plus one redialled connection", pool)
	}
	releaseAll(t, g, errs, 1)
	releaseAll(t, g, more, 1)
}

// TestPoolDialFailureSharesLiveConnection: when the dial for a second
// connection fails, the call shares the live one instead of failing.
func TestPoolDialFailureSharesLiveConnection(t *testing.T) {
	g := newGate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSniffer(ln, ServerConfig{Handler: g.handle})
	defer s.Close()
	addr := ln.Addr().String()
	tr := NewBinary(nil)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := invokeNamed(ctx, tr, addr, "warm"); err != nil {
		t.Fatal(err)
	}
	ln.Close() // no new connections; the served one stays up
	errs := holdCalls(ctx, tr, g, addr, "busy", 1)
	if err := invokeNamed(ctx, tr, addr, "shared"); err != nil {
		t.Fatalf("dial failed with a live connection to share: %v", err)
	}
	if got := poolLoads(tr, addr); !slices.Equal(got, []int{1}) {
		t.Fatalf("loads %v, want the one live connection, still held", got)
	}
	releaseAll(t, g, errs, 1)
}

// TestPoolCloseFailsEveryPendingCall: Close severs every pooled
// connection, each held call on any of them fails retryable
// unavailable, and later calls fail at once.
func TestPoolCloseFailsEveryPendingCall(t *testing.T) {
	g := newGate()
	_, addr := listenGate(t, g)
	tr := NewBinary(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const held = 3 * maxConnsPerPeer
	errs := holdCalls(ctx, tr, g, addr, "closing", held)
	tr.mu.Lock()
	pool := slices.Clone(tr.conns[addr])
	tr.mu.Unlock()
	tr.Close()
	for i := 0; i < held; i++ {
		if err := <-errs; cberr.CodeOf(err) != cberr.CodeUnavailable || !cberr.Retryable(err) {
			t.Errorf("held call across Close: %v, want retryable unavailable", err)
		}
	}
	for i, mc := range pool {
		select {
		case <-mc.dead:
		default:
			t.Errorf("connection %d outlived Close", i)
		}
	}
	if err := invokeNamed(ctx, tr, addr, "late"); cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Fatalf("call after Close: %v, want unavailable", err)
	}
	close(g.release) // the held handlers answer into dead connections
}

// TestPoolNoCrossTalk: many callers over the pooled connections each
// get the answer to their own request, and the pool ends at its bound.
func TestPoolNoCrossTalk(t *testing.T) {
	_, addr := listenGate(t, newGate())
	tr := NewBinary(nil)
	defer tr.Close()
	const callers, calls = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := invokeNamed(context.Background(), tr, addr, fmt.Sprintf("talk-%d-%d", c, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := poolLoads(tr, addr); len(got) > maxConnsPerPeer || slices.Max(got) != 0 {
		t.Fatalf("loads %v after the storm, want at most %d idle connections", got, maxConnsPerPeer)
	}
}
