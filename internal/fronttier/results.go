package fronttier

import (
	"context"
	"errors"
	"sync"
	"time"

	"confbench/internal/api"
)

// Async result-store defaults.
const (
	// DefaultAsyncCapacity bounds how many async results (pending +
	// retained) the store holds before submissions shed.
	DefaultAsyncCapacity = 1024
	// DefaultAsyncTTL is how long a completed result stays pollable.
	DefaultAsyncTTL = time.Minute
	// MaxResultWait caps one long-poll's server-side wait; clients
	// asking for more are clamped, never rejected.
	MaxResultWait = 30 * time.Second
)

// ErrStoreFull marks an async submission shed because the result
// backlog is at capacity with nothing evictable (every entry still
// pending).
var ErrStoreFull = errors.New("fronttier: async result store full")

// storeEntry is one async invoke's lifecycle record.
type storeEntry struct {
	res    api.AsyncResult
	doneAt time.Time     // zero while pending
	done   chan struct{} // closed on completion; long-polls park on it
}

// doneItem is one completed entry in the store's completion FIFO. It
// carries the entry itself, so the sweep can tell an item whose id was
// re-put since (entries[id] != e) and drop it as stale.
type doneItem struct {
	id string
	e  *storeEntry
}

// ResultStore is the bounded TTL store behind GET /v1/invoke/{id}:
// submissions insert a pending entry, the completion goroutine fills
// in the terminal result, and polls read it until the TTL expires.
// Bounded on purpose — an abandoned poller must not grow the tier's
// memory without limit. When full, expired and oldest-completed
// entries evict first; a store full of pending work sheds new
// submissions instead (those entries are owed to live callers).
//
// Completed entries queue in completion order, and the TTL sweep and
// capacity eviction both pop that queue's head: the entry that
// completed first goes first. Every call is amortized O(1) and touches
// only the entries it removes; pending entries are never queued, so
// they never expire or evict.
type ResultStore struct {
	capacity int
	ttl      time.Duration
	now      func() time.Time

	mu      sync.Mutex
	entries map[string]*storeEntry
	done    []doneItem // completion order; live items start at head
	head    int
	pending int
}

// NewResultStore builds a store holding up to capacity results
// (0 = DefaultAsyncCapacity), each retained ttl past completion
// (0 = DefaultAsyncTTL), on the injected clock (nil = wall).
func NewResultStore(capacity int, ttl time.Duration, now func() time.Time) *ResultStore {
	if capacity <= 0 {
		capacity = DefaultAsyncCapacity
	}
	if ttl <= 0 {
		ttl = DefaultAsyncTTL
	}
	if now == nil {
		now = time.Now
	}
	return &ResultStore{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		entries:  make(map[string]*storeEntry),
	}
}

// Put inserts a pending entry for id, evicting expired and
// oldest-completed entries to make room. ErrStoreFull when every
// held entry is still pending.
func (s *ResultStore) Put(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	if len(s.entries) >= s.capacity && !s.evictOldestDoneLocked() {
		return ErrStoreFull
	}
	s.entries[id] = &storeEntry{
		res:  api.AsyncResult{ID: id, Status: api.AsyncPending},
		done: make(chan struct{}),
	}
	s.pending++
	return nil
}

// Complete records id's terminal result: resp on success, errResp on
// failure. Completing an evicted or unknown id is a no-op (the poller
// already lost the race; nothing to serve).
func (s *ResultStore) Complete(id string, resp *api.InvokeResponse, errResp *api.ErrorResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completeLocked(id, resp, errResp)
}

// completeLocked is Complete under s.mu: it fills in the pending entry
// and queues it at the tail of the completion FIFO.
func (s *ResultStore) completeLocked(id string, resp *api.InvokeResponse, errResp *api.ErrorResponse) {
	e, ok := s.entries[id]
	if !ok || e.res.Status != api.AsyncPending {
		return
	}
	s.pending--
	e.doneAt = s.now()
	close(e.done)
	s.done = append(s.done, doneItem{id: id, e: e})
	if errResp != nil {
		e.res.Status = api.AsyncError
		e.res.Error = errResp
		return
	}
	e.res.Status = api.AsyncDone
	e.res.Response = resp
}

// Get reads id's current lifecycle record. Misses cover never-seen,
// evicted, and TTL-expired ids alike.
func (s *ResultStore) Get(id string) (api.AsyncResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	e, ok := s.entries[id]
	if !ok {
		return api.AsyncResult{}, false
	}
	return e.res, true
}

// Await blocks until id completes, ctx cancels, or wait elapses —
// the long-poll behind GET /v1/invoke/{id}?wait=<dur>. The bool
// reports whether the id is known; the returned result may still be
// pending when the wait (or the caller) expired first.
func (s *ResultStore) Await(ctx context.Context, id string, wait time.Duration) (api.AsyncResult, bool) {
	s.mu.Lock()
	s.sweepLocked()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		return api.AsyncResult{}, false
	}
	res, done := e.res, e.done
	s.mu.Unlock()
	if res.Status != api.AsyncPending || wait <= 0 {
		return res, true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	case <-ctx.Done():
	}
	// Read the held entry, not the map: a result that completed and was
	// then capacity-evicted (or TTL-swept) during the park window is
	// still owed to this caller. e.res is only written under s.mu.
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.res, true
}

// Pending reports how many stored invokes are still executing.
func (s *ResultStore) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Len reports the live entry count (pending + retained).
func (s *ResultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return len(s.entries)
}

// sweepLocked drops completed entries past their TTL: the FIFO is in
// completion order, so they are a prefix of it. Caller holds s.mu.
func (s *ResultStore) sweepLocked() {
	now := s.now()
	for s.head < len(s.done) {
		it := s.done[s.head]
		if s.entries[it.id] == it.e {
			if now.Sub(it.e.doneAt) < s.ttl {
				return
			}
			delete(s.entries, it.id)
		}
		s.popLocked()
	}
}

// evictOldestDoneLocked drops the entry that completed first,
// reporting whether it made room (false: every held entry is pending).
// Caller holds s.mu and has just swept, so the FIFO's head is live.
func (s *ResultStore) evictOldestDoneLocked() bool {
	if s.head == len(s.done) {
		return false
	}
	delete(s.entries, s.done[s.head].id)
	s.popLocked()
	return true
}

// popLocked drops the FIFO's head item. Once the head passes half the
// slice the items behind it move to the front, a copy no longer than
// the pops since the last one. Caller holds s.mu.
func (s *ResultStore) popLocked() {
	s.done[s.head] = doneItem{}
	s.head++
	if 2*s.head >= len(s.done) {
		n := copy(s.done, s.done[s.head:])
		clear(s.done[n:])
		s.done = s.done[:n]
		s.head = 0
	}
}
