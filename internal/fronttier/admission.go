package fronttier

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"confbench/internal/cberr"
)

// Admission-control shed sentinels; the tier maps each onto a shed
// reason label so postmortems can attribute sheds (quota, queue,
// backlog) separately from breaker trips.
var (
	// ErrTenantRate marks a tenant over its token-bucket rate.
	ErrTenantRate = errors.New("fronttier: tenant over rate limit")
	// ErrTenantInFlight marks a tenant at its in-flight quota.
	ErrTenantInFlight = errors.New("fronttier: tenant in-flight quota exhausted")
)

// TenantLimits caps one tenant's admission. Zero fields mean
// unlimited on that axis, so the zero value admits everything — only
// tenants with configured quotas are ever shed by admission control.
type TenantLimits struct {
	// RatePerSec refills the tenant's token bucket (requests/second).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket's capacity: how far above the steady rate a
	// tenant may spike. 0 with a positive rate means a burst of 1.
	Burst int `json:"burst,omitempty"`
	// MaxInFlight caps the tenant's concurrently executing invokes
	// (sync and async both count until completion).
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// tenantState is one tenant's live bucket and in-flight count.
type tenantState struct {
	tokens   float64
	last     time.Time
	inFlight int
}

// Admission is the tier's per-tenant admission controller: a token
// bucket (rate + burst) gates the request rate and an in-flight
// counter gates concurrency. Time is injected so tests (and the
// seeded bench) drive the buckets on a synthetic clock.
type Admission struct {
	now func() time.Time

	mu     sync.Mutex
	limits map[string]TenantLimits
	state  map[string]*tenantState
}

// NewAdmission builds the controller over the given quota table
// (tenants absent from it are unlimited) and clock (nil = wall).
func NewAdmission(limits map[string]TenantLimits, now func() time.Time) *Admission {
	if now == nil {
		now = time.Now
	}
	l := make(map[string]TenantLimits, len(limits))
	for k, v := range limits {
		l[k] = v
	}
	return &Admission{now: now, limits: l, state: make(map[string]*tenantState)}
}

// Admit gates one request for tenant. On admission it returns a
// release closure the caller MUST invoke when the invoke completes
// (idempotence is the caller's job — the tier calls it exactly once,
// in the async path from the completion goroutine). On shed it
// returns a retryable CodeUnavailable cberr carrying computed
// RetryAfter advice: time until the bucket refills one token for rate
// sheds, or a bucket-derived pacing hint for in-flight sheds.
func (a *Admission) Admit(tenant string) (func(), error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lim, limited := a.limits[tenant]
	if !limited || (lim.RatePerSec <= 0 && lim.MaxInFlight <= 0) {
		return func() {}, nil
	}
	st := a.state[tenant]
	if st == nil {
		st = &tenantState{tokens: float64(burstOf(lim)), last: a.now()}
		a.state[tenant] = st
	}
	if lim.RatePerSec > 0 {
		now := a.now()
		st.tokens = math.Min(float64(burstOf(lim)),
			st.tokens+now.Sub(st.last).Seconds()*lim.RatePerSec)
		st.last = now
		if st.tokens < 1 {
			wait := time.Duration((1 - st.tokens) / lim.RatePerSec * float64(time.Second))
			if wait <= 0 {
				wait = time.Millisecond
			}
			return nil, shed(fmt.Errorf("%w: tenant %q at %.3g req/s", ErrTenantRate, tenant, lim.RatePerSec), wait)
		}
	}
	if lim.MaxInFlight > 0 && st.inFlight >= lim.MaxInFlight {
		// No token consumed: the request never ran. Advise pacing to
		// the refill rate when there is one, else a short fixed poll.
		wait := 25 * time.Millisecond
		if lim.RatePerSec > 0 {
			wait = time.Duration(float64(time.Second) / lim.RatePerSec)
		}
		return nil, shed(fmt.Errorf("%w: tenant %q at %d in flight", ErrTenantInFlight, tenant, lim.MaxInFlight), wait)
	}
	if lim.RatePerSec > 0 {
		st.tokens--
	}
	st.inFlight++
	return func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		if s := a.state[tenant]; s != nil && s.inFlight > 0 {
			s.inFlight--
		}
	}, nil
}

// InFlight reports a tenant's live in-flight count.
func (a *Admission) InFlight(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.state[tenant]; st != nil {
		return st.inFlight
	}
	return 0
}

// burstOf resolves the effective bucket capacity: Burst, floored at 1
// when a rate is set (a bucket that can never hold a whole token
// admits nothing).
func burstOf(lim TenantLimits) int {
	if lim.Burst > 0 {
		return lim.Burst
	}
	return 1
}

// shed classifies an admission refusal: retryable unavailable at the
// front layer, carrying the computed retry-after.
func shed(err error, retryAfter time.Duration) error {
	return cberr.WithRetryAfter(cberr.Wrap(cberr.CodeUnavailable, cberr.LayerFront, err), retryAfter)
}
