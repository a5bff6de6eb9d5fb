// Package gateway implements ConfBench's entry point: the REST server
// that receives workload submissions and execution requests,
// dispatches them to TEE-enabled hosts, and returns results with the
// piggybacked perf metrics (§III).
//
// The gateway keeps a database of available functions per supported
// language, a configuration mapping TEEs to host endpoints, and "TEE
// pools" that load-balance workload requests across hosts of the same
// platform, with a pluggable policy (round-robin or least-loaded) that
// cloud providers would adjust to their needs (§III-A). Pool entries
// carry per-endpoint health: a consecutive-failure circuit breaker
// takes wedged hosts out of rotation, and the dispatcher retries a
// retryably-failed invoke once on an alternate endpoint, so one dead
// SEV host does not sink every request routed to it.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// Pool errors.
var (
	ErrNoEndpoint = errors.New("gateway: no endpoint available")
	ErrNoPool     = errors.New("gateway: no pool for TEE")
	// ErrAllUnhealthy is returned when endpoints matching the request
	// exist but every breaker is open.
	ErrAllUnhealthy = errors.New("gateway: all matching endpoints unhealthy")
)

// Entry is one VM endpoint inside a pool, with its in-flight counter
// and circuit breaker.
type Entry struct {
	Host     string
	Endpoint hostagent.Endpoint
	inFlight atomic.Int64
	breaker  *Breaker
	draining atomic.Bool
}

// InFlight returns the endpoint's current in-flight request count.
func (e *Entry) InFlight() int64 { return e.inFlight.Load() }

// BreakerState returns the endpoint's circuit-breaker position.
func (e *Entry) BreakerState() BreakerState { return e.breaker.State() }

// Draining reports whether the endpoint is quiesced for migration:
// it accepts no new checkouts while its in-flight invokes complete.
func (e *Entry) Draining() bool { return e.draining.Load() }

// Policy selects an endpoint from a candidate set.
type Policy interface {
	// Name identifies the policy in GET /pools output.
	Name() string
	// Pick returns the index of the chosen candidate (candidates is
	// never empty).
	Pick(candidates []*Entry) int
}

// RoundRobin cycles through endpoints.
type RoundRobin struct {
	counter atomic.Uint64
}

var _ Policy = (*RoundRobin)(nil)

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy. The modulo happens in uint64 space: doing
// it after the int conversion goes negative once the counter passes
// MaxInt (32-bit builds, long-lived gateways) and yields a negative
// index.
func (r *RoundRobin) Pick(candidates []*Entry) int {
	return int((r.counter.Add(1) - 1) % uint64(len(candidates)))
}

// LeastLoaded picks the endpoint with the fewest in-flight requests.
type LeastLoaded struct{}

var _ Policy = (*LeastLoaded)(nil)

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(candidates []*Entry) int {
	best := 0
	bestLoad := candidates[0].InFlight()
	for i := 1; i < len(candidates); i++ {
		if load := candidates[i].InFlight(); load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// Pool groups the endpoints of one TEE platform.
type Pool struct {
	TEE    tee.Kind
	policy Policy

	reg              *obs.Registry
	breakerThreshold int
	breakerCooldown  time.Duration

	checkouts *obs.Counter
	waitHist  *obs.Histogram
	occupancy *obs.Gauge

	mu      sync.RWMutex
	entries []*Entry
}

// PoolOption tweaks a pool built by NewPool.
type PoolOption func(*Pool)

// WithBreaker sets the per-endpoint circuit-breaker parameters:
// threshold consecutive failures trip an endpoint open; after
// cooldown one probe request is allowed through. Zero values keep
// the defaults.
func WithBreaker(threshold int, cooldown time.Duration) PoolOption {
	return func(p *Pool) {
		p.breakerThreshold = threshold
		p.breakerCooldown = cooldown
	}
}

// NewPool builds a pool with the given policy (nil = round-robin),
// registering its metrics in reg (nil = the default registry).
func NewPool(kind tee.Kind, policy Policy, reg *obs.Registry, opts ...PoolOption) *Pool {
	if policy == nil {
		policy = &RoundRobin{}
	}
	r := obs.OrDefault(reg)
	p := &Pool{
		TEE:       kind,
		policy:    policy,
		reg:       r,
		checkouts: r.Counter("confbench_pool_checkouts_total", "tee", string(kind)),
		waitHist:  r.Histogram("confbench_pool_checkout_wait_seconds", "tee", string(kind)),
		occupancy: r.Gauge("confbench_pool_occupancy", "tee", string(kind)),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Add registers an endpoint with a fresh (closed) breaker.
func (p *Pool) Add(host string, ep hostagent.Endpoint) {
	gauge := p.reg.Gauge("confbench_breaker_state",
		"tee", string(p.TEE), "host", host, "vm", ep.VMName)
	gauge.Set(int64(BreakerClosed))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = append(p.entries, &Entry{
		Host:     host,
		Endpoint: ep,
		breaker:  NewBreaker(p.breakerThreshold, p.breakerCooldown, gauge),
	})
}

// Len returns the endpoint count.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.entries)
}

// InFlight sums in-flight requests across the pool.
func (p *Pool) InFlight() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var total int64
	for _, e := range p.entries {
		total += e.InFlight()
	}
	return total
}

// Healthy counts endpoints whose breaker is not open.
func (p *Pool) Healthy() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, e := range p.entries {
		if e.BreakerState() != BreakerOpen {
			n++
		}
	}
	return n
}

// Members reports per-endpoint health for GET /pools — the partial
// pool status the gateway serves while some hosts are down.
func (p *Pool) Members() []api.EndpointHealth {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]api.EndpointHealth, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, api.EndpointHealth{
			Host:     e.Host,
			VM:       e.Endpoint.VMName,
			Secure:   e.Endpoint.Secure,
			Breaker:  e.BreakerState().String(),
			InFlight: e.InFlight(),
			Draining: e.Draining(),
		})
	}
	return out
}

// PolicyName returns the load-balancing policy label.
func (p *Pool) PolicyName() string { return p.policy.Name() }

// Checkout is one acquired endpoint lease. Release is idempotent per
// checkout, so a double release cannot drive the in-flight counter
// negative and corrupt least-loaded picks.
type Checkout struct {
	// Entry is the leased endpoint.
	Entry *Entry

	pool     *Pool
	released atomic.Bool
}

// Release returns the lease. Safe to call more than once and on nil.
func (c *Checkout) Release() {
	if c == nil || c.released.Swap(true) {
		return
	}
	c.pool.release(c.Entry)
}

// Acquire picks a healthy endpoint matching secure, incrementing its
// in-flight counter. Callers must Release the checkout. The checkout
// is counted and its wait timed; when the context carries an active
// trace, the checkout gets its own pool-layer span.
func (p *Pool) Acquire(ctx context.Context, secure bool) (*Checkout, error) {
	return p.AcquireAvoiding(ctx, secure, nil)
}

// AcquireAvoiding is Acquire with one endpoint excluded — the retry
// path uses it to move a failed invoke to an alternate endpoint.
// Endpoints whose breaker is open (and still cooling down) are
// skipped; when every matching endpoint is unhealthy the pool reports
// ErrAllUnhealthy rather than routing into a known-bad host.
func (p *Pool) AcquireAvoiding(ctx context.Context, secure bool, avoid *Entry) (*Checkout, error) {
	e, err := p.acquire(ctx, secure, avoid)
	if err != nil {
		return nil, err
	}
	return &Checkout{Entry: e, pool: p}, nil
}

// maxStackCandidates is how many endpoints acquire gathers in an array
// on its own stack; a pool with more matching endpoints spills the
// candidate list to the heap.
const maxStackCandidates = 8

// acquire is AcquireAvoiding without the Checkout box: it returns the
// picked entry, already counted in flight, for release to hand back.
// The dispatcher calls it directly, so a checkout costs no allocation.
func (p *Pool) acquire(ctx context.Context, secure bool, avoid *Entry) (*Entry, error) {
	_, span := obs.StartSpan(ctx, "pool", "checkout", string(p.TEE))
	defer span.End()
	start := time.Now()
	p.mu.RLock()
	matching := 0
	var stack [maxStackCandidates]*Entry
	candidates := stack[:0]
	var tripped []*Entry // matching endpoints an open/probing breaker blocked
	for _, e := range p.entries {
		if e.Endpoint.Secure != secure {
			continue
		}
		// A draining endpoint is invisible to routing: its in-flight
		// invokes finish on the source host, new work goes elsewhere.
		if e.Draining() {
			continue
		}
		matching++
		if e == avoid {
			continue
		}
		if !e.breaker.Available(start) {
			tripped = append(tripped, e)
			continue
		}
		candidates = append(candidates, e)
	}
	p.mu.RUnlock()
	// Prefer endpoints backed by a prewarmed guest pool: when any warm
	// candidate is healthy, cold ones stay out of the pick.
	warm := 0
	for _, e := range candidates {
		if e.Endpoint.Warm {
			warm++
		}
	}
	if warm > 0 && warm < len(candidates) {
		warmOnly := candidates[:0]
		for _, e := range candidates {
			if e.Endpoint.Warm {
				warmOnly = append(warmOnly, e)
			}
		}
		candidates = warmOnly
	}
	if len(candidates) == 0 {
		if matching > 0 {
			span.SetAttr("error", "all endpoints unhealthy")
			return nil, p.allUnhealthyError(secure, matching, tripped, start)
		}
		span.SetAttr("error", "no endpoint")
		return nil, fmt.Errorf("%w: %s secure=%v", ErrNoEndpoint, p.TEE, secure)
	}
	e := candidates[p.pick(candidates)]
	e.breaker.BeginAttempt(start)
	e.inFlight.Add(1)
	p.checkouts.Inc()
	p.waitHist.Observe(time.Since(start))
	p.occupancy.Set(p.InFlight())
	span.SetAttr("vm", e.Endpoint.VMName)
	span.SetAttr("secure", strconv.FormatBool(secure))
	if e.breaker.State() == BreakerHalfOpen {
		span.SetAttr("breaker", "half-open probe")
	}
	return e, nil
}

// release hands back an entry acquire returned.
func (p *Pool) release(e *Entry) {
	e.inFlight.Add(-1)
	p.occupancy.Set(p.InFlight())
}

// pick asks the policy for one of candidates. The built-in policies are
// called directly so that candidates, which may sit on acquire's stack,
// stays there; any other Policy is an interface call, which lets its
// argument escape, and gets a heap copy.
func (p *Pool) pick(candidates []*Entry) int {
	switch pol := p.policy.(type) {
	case *RoundRobin:
		return pol.Pick(candidates)
	case LeastLoaded:
		return pol.Pick(candidates)
	}
	return p.policy.Pick(slices.Clone(candidates))
}

// allUnhealthyError builds the shed verdict for a pool whose every
// matching endpoint is blocked. The message names the open breakers
// (host/vm) so postmortems can attribute the shed to breaker trips
// rather than admission-control load shedding, and the error carries
// the soonest breaker re-admission as RetryAfter advice. errors.Is
// against ErrAllUnhealthy keeps holding through the classification.
func (p *Pool) allUnhealthyError(secure bool, matching int, tripped []*Entry, now time.Time) error {
	names := make([]string, 0, len(tripped))
	var soonest time.Duration
	for _, e := range tripped {
		names = append(names, e.Host+"/"+e.Endpoint.VMName)
		if in := e.breaker.RetryIn(now); in > 0 && (soonest == 0 || in < soonest) {
			soonest = in
		}
	}
	detail := fmt.Sprintf("%d endpoints", matching)
	if len(names) > 0 {
		detail = "open breakers: " + strings.Join(names, ", ")
	}
	err := cberr.Wrap(cberr.CodeUnavailable, cberr.LayerPool,
		fmt.Errorf("%w: %s secure=%v (%s)", ErrAllUnhealthy, p.TEE, secure, detail))
	return cberr.WithRetryAfter(err, soonest)
}

// Release returns an acquired checkout; idempotent and nil-safe.
func (p *Pool) Release(c *Checkout) { c.Release() }

// Quiesce marks every endpoint on host as draining and returns how
// many were marked. Checkouts already in flight keep their leases and
// complete on the host; new acquires route around it.
func (p *Pool) Quiesce(host string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, e := range p.entries {
		if e.Host == host {
			e.draining.Store(true)
			n++
		}
	}
	return n
}

// Unquiesce clears the draining mark on host's endpoints, returning
// them to routing — the recovery path when a drain aborts (e.g. a
// migration failed attestation) and the host must keep serving.
func (p *Pool) Unquiesce(host string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, e := range p.entries {
		if e.Host == host {
			e.draining.Store(false)
			n++
		}
	}
	return n
}

// InFlightFor sums in-flight requests on one host's endpoints — the
// drain path polls it to zero before migrating the host's guests.
func (p *Pool) InFlightFor(host string) int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var total int64
	for _, e := range p.entries {
		if e.Host == host {
			total += e.InFlight()
		}
	}
	return total
}

// Remove deletes every endpoint on host from the pool and returns how
// many were removed. Call after Quiesce has drained the in-flight
// work; a removed endpoint can never be picked again.
func (p *Pool) Remove(host string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.entries[:0]
	n := 0
	for _, e := range p.entries {
		if e.Host == host {
			n++
			continue
		}
		kept = append(kept, e)
	}
	// Zero the tail so removed entries do not linger reachable.
	for i := len(kept); i < len(p.entries); i++ {
		p.entries[i] = nil
	}
	p.entries = kept
	return n
}
