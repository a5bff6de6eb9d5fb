package hostagent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/vm"
)

// snapshotName is the guest name every pool snapshots under.
const snapshotName = "default"

// GuestPoolConfig assembles a prewarmed guest pool.
type GuestPoolConfig struct {
	// Backend launches (and, when it implements tee.Snapshotter,
	// restores) guests.
	Backend tee.Backend
	// Guest is the per-guest configuration; pool guests draw from the
	// backend's noise streams like regular launches.
	Guest tee.GuestConfig
	// Cache is the (usually cluster-shared) snapshot image cache (nil =
	// no caching; every warm create snapshots afresh).
	Cache *vm.SnapshotCache
	// High is the idle high watermark (default 1): a background refill
	// tops the pool back up to High whenever idle drops below the low
	// watermark, (High+1)/2.
	High int
	// Obs is the metrics registry warm-path counters report to (nil =
	// the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane evaluated at the snapshot.restore point
	// (nil = fault-free).
	Faults *faultplane.Plane
	// Host labels the pool's host for fault-spec matching.
	Host string
}

// GuestPool keeps restored-from-snapshot guests idle and ready so
// Acquire hands out a booted guest without paying the measured build.
// A background goroutine refills the pool between the low and high
// watermarks; a failed or fault-injected restore falls back to a cold
// launch so callers never see the warm path break.
type GuestPool struct {
	backend tee.Backend
	guest   tee.GuestConfig
	cache   *vm.SnapshotCache
	low     int // (high+1)/2; a test raises it
	high    int
	faults  *faultplane.Plane
	host    string

	hits      *obs.Counter
	misses    *obs.Counter
	fallbacks *obs.Counter
	idleGauge *obs.Gauge
	refillLag *obs.Histogram

	mu     sync.Mutex
	idle   []tee.Guest
	leased map[string]tee.Guest
	closed bool

	refillCh chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewGuestPool prefills a pool to its high watermark and starts the
// refill goroutine. The prefill is synchronous so a freshly built pool
// serves its first Acquire warm.
func NewGuestPool(cfg GuestPoolConfig) (*GuestPool, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("hostagent: pool: nil backend")
	}
	if cfg.High <= 0 {
		cfg.High = 1
	}
	r := obs.OrDefault(cfg.Obs)
	kind := string(cfg.Backend.Kind())
	p := &GuestPool{
		backend:   cfg.Backend,
		guest:     cfg.Guest,
		cache:     cfg.Cache,
		low:       (cfg.High + 1) / 2,
		high:      cfg.High,
		faults:    cfg.Faults,
		host:      cfg.Host,
		hits:      r.Counter("confbench_warm_hits_total", "tee", kind),
		misses:    r.Counter("confbench_warm_misses_total", "tee", kind),
		fallbacks: r.Counter("confbench_warm_fallbacks_total", "tee", kind),
		idleGauge: r.Gauge("confbench_warm_pool_idle", "tee", kind),
		refillLag: r.Histogram("confbench_warm_refill_lag_seconds", "tee", kind),
		leased:    make(map[string]tee.Guest),
		refillCh:  make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for i := 0; i < p.high; i++ {
		g, err := p.create()
		if err != nil {
			for _, idle := range p.idle {
				_ = idle.Destroy()
			}
			return nil, fmt.Errorf("hostagent: pool prefill: %w", err)
		}
		p.idle = append(p.idle, g)
	}
	p.idleGauge.Set(int64(len(p.idle)))
	p.wg.Add(1)
	go p.refillLoop()
	return p, nil
}

// Watermarks returns the low and high idle watermarks.
func (p *GuestPool) Watermarks() (low, high int) { return p.low, p.high }

// Idle returns the current idle-guest count.
func (p *GuestPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Leased returns the number of guests currently checked out.
func (p *GuestPool) Leased() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.leased)
}

// create builds one warm guest: restore from a (cached) snapshot image
// when the backend supports it, falling back to a cold launch when the
// restore fails or a snapshot.restore fault severs the warm path.
func (p *GuestPool) create() (tee.Guest, error) {
	snap, ok := p.backend.(tee.Snapshotter)
	if !ok {
		return p.backend.Launch(p.guest)
	}
	cfg := p.guest.WithDefaults()
	key := vm.SnapshotKey{Kind: p.backend.Kind(), MemoryMB: cfg.MemoryMB}
	img, cached := p.cache.Get(key)
	if !cached {
		// Snapshot under one fixed name, not the host name, so the image
		// (and its measurement) is host-independent and shareable
		// through the cluster cache.
		tmpl := cfg
		tmpl.Name = snapshotName
		var err error
		img, err = snap.Snapshot(tmpl)
		if err != nil {
			p.fallbacks.Inc()
			return p.backend.Launch(p.guest)
		}
		p.cache.Put(key, img)
	}
	if d := p.faults.Evaluate(faultplane.PointSnapshotRestore, faultplane.Target{
		TEE: string(p.backend.Kind()), Host: p.host,
	}); d.Inject {
		switch d.Kind {
		case faultplane.KindLatency, faultplane.KindSlowIO:
			time.Sleep(d.Latency)
		default: // error / drop / crash: the restore never completes.
			p.fallbacks.Inc()
			return p.backend.Launch(p.guest)
		}
	}
	g, err := snap.Restore(img, cfg)
	if err != nil {
		p.fallbacks.Inc()
		return p.backend.Launch(p.guest)
	}
	return g, nil
}

// Acquire checks a guest out of the pool: a warm hit pops an idle
// guest, a miss builds one inline (still via the snapshot path). The
// refill goroutine is nudged when idle dips below the low watermark.
func (p *GuestPool) Acquire() (tee.Guest, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("hostagent: pool: acquire after shutdown")
	}
	if n := len(p.idle); n > 0 {
		g := p.idle[0]
		p.idle = p.idle[1:]
		p.leased[g.ID()] = g
		p.idleGauge.Set(int64(len(p.idle)))
		needRefill := len(p.idle) < p.low
		p.mu.Unlock()
		p.hits.Inc()
		if needRefill {
			p.nudgeRefill()
		}
		return g, nil
	}
	p.mu.Unlock()
	p.misses.Inc()
	g, err := p.create()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = g.Destroy()
		return nil, fmt.Errorf("hostagent: pool: acquire after shutdown")
	}
	p.leased[g.ID()] = g
	p.mu.Unlock()
	p.nudgeRefill()
	return g, nil
}

// Release returns a leased guest. Destroyed guests are dropped, and a
// pool already at its high watermark destroys the returned guest
// rather than exceeding it. Releasing a guest the pool does not hold
// is a no-op.
func (p *GuestPool) Release(g tee.Guest) {
	if g == nil {
		return
	}
	p.mu.Lock()
	if _, ok := p.leased[g.ID()]; !ok {
		p.mu.Unlock()
		return
	}
	delete(p.leased, g.ID())
	if dg, ok := g.(interface{ Destroyed() bool }); ok && dg.Destroyed() {
		p.mu.Unlock()
		p.nudgeRefill()
		return
	}
	if p.closed || len(p.idle) >= p.high {
		p.mu.Unlock()
		_ = g.Destroy()
		return
	}
	p.idle = append(p.idle, g)
	p.idleGauge.Set(int64(len(p.idle)))
	p.mu.Unlock()
}

// nudgeRefill wakes the refill goroutine without blocking.
func (p *GuestPool) nudgeRefill() {
	select {
	case p.refillCh <- struct{}{}:
	default:
	}
}

// refillLoop tops the pool back up to the high watermark whenever
// nudged, recording how long each whole refill round took.
func (p *GuestPool) refillLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case <-p.refillCh:
		}
		start := time.Now()
		refilled := false
		for {
			select {
			case <-p.done:
				return
			default:
			}
			p.mu.Lock()
			full := p.closed || len(p.idle) >= p.high
			p.mu.Unlock()
			if full {
				break
			}
			g, err := p.create()
			if err != nil {
				break // even the cold fallback failed; retry on next nudge
			}
			p.mu.Lock()
			if p.closed || len(p.idle) >= p.high {
				p.mu.Unlock()
				_ = g.Destroy()
				break
			}
			p.idle = append(p.idle, g)
			p.idleGauge.Set(int64(len(p.idle)))
			p.mu.Unlock()
			refilled = true
		}
		if refilled {
			p.refillLag.Observe(time.Since(start))
		}
	}
}

// Shutdown stops the refill goroutine and destroys the idle guests.
// Leased guests are the holders' to destroy and release. The ctx
// bounds the wait for the refill goroutine to drain — but the idle
// guests are destroyed even when that wait times out: an impatient
// ctx must not leak warm guests. (A refill create still in flight at
// that point lands on the closed pool and is destroyed by the refill
// goroutine itself, so nothing escapes either way.)
func (p *GuestPool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	var errs []error
	select {
	case <-drained:
	case <-ctx.Done():
		errs = append(errs, ctx.Err())
	}
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.idleGauge.Set(0)
	p.mu.Unlock()
	for _, g := range idle {
		errs = append(errs, g.Destroy())
	}
	return errors.Join(errs...)
}

// DrainIdle pops and returns every idle guest without destroying it,
// leaving the pool empty (the refill goroutine will top it back up
// unless the pool is being shut down). Live migration uses this to
// move a departing host's warm capacity instead of burning it.
func (p *GuestPool) DrainIdle() []tee.Guest {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.idleGauge.Set(0)
	p.mu.Unlock()
	return idle
}

// Adopt inserts an externally built guest (e.g. one migrated in from
// a draining host) into the idle set. A closed pool, or one already
// at its high watermark, destroys the guest instead — mirroring
// Release — and Adopt reports whether the guest was kept.
func (p *GuestPool) Adopt(g tee.Guest) bool {
	if g == nil {
		return false
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.high {
		p.mu.Unlock()
		_ = g.Destroy()
		return false
	}
	p.idle = append(p.idle, g)
	p.idleGauge.Set(int64(len(p.idle)))
	p.mu.Unlock()
	return true
}
