package fronttier

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/api"
)

// TestResultStoreLifecycle: pending → done with the response, and
// pending → error with the envelope.
func TestResultStoreLifecycle(t *testing.T) {
	s := NewResultStore(0, 0, nil)
	if err := s.Put("a"); err != nil {
		t.Fatal(err)
	}
	res, ok := s.Get("a")
	if !ok || res.Status != api.AsyncPending {
		t.Fatalf("fresh entry = %+v ok=%v, want pending", res, ok)
	}
	s.Complete("a", &api.InvokeResponse{Output: "out", WallNs: 7}, nil)
	res, ok = s.Get("a")
	if !ok || res.Status != api.AsyncDone || res.Response == nil || res.Response.WallNs != 7 {
		t.Fatalf("completed entry = %+v", res)
	}

	if err := s.Put("b"); err != nil {
		t.Fatal(err)
	}
	s.Complete("b", nil, &api.ErrorResponse{Error: "boom", Code: "unavailable"})
	res, _ = s.Get("b")
	if res.Status != api.AsyncError || res.Error == nil || res.Error.Error != "boom" {
		t.Fatalf("failed entry = %+v", res)
	}
	// Completing twice (a late duplicate) must not clobber the record.
	s.Complete("b", &api.InvokeResponse{}, nil)
	if res, _ = s.Get("b"); res.Status != api.AsyncError {
		t.Fatalf("duplicate completion clobbered the record: %+v", res)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

// TestResultStoreTTL: completed results expire ttl after completion;
// pending entries never expire.
func TestResultStoreTTL(t *testing.T) {
	ck := newClock()
	s := NewResultStore(8, time.Minute, ck.now)
	_ = s.Put("done")
	_ = s.Put("stuck")
	s.Complete("done", &api.InvokeResponse{}, nil)
	ck.advance(59 * time.Second)
	if _, ok := s.Get("done"); !ok {
		t.Fatal("result expired before its TTL")
	}
	ck.advance(2 * time.Second)
	if _, ok := s.Get("done"); ok {
		t.Fatal("result survived past its TTL")
	}
	if _, ok := s.Get("stuck"); !ok {
		t.Fatal("pending entry must not expire")
	}
}

// TestResultStoreAwaitSurvivesEvictionDuringPark is the regression
// test for the long-poll re-read race: a result that completed and was
// then capacity-evicted while Await was parked used to be re-read
// through the map and reported ok=false — the poller lost a result it
// was owed. The fixed Await reads the entry it captured before
// parking.
//
// Sequencing is deterministic: the injected clock fires a signal from
// inside Await's first locked section, and the test then takes s.mu
// itself — which can only succeed after Await has captured the entry
// and released the lock. Completion and eviction happen in one
// critical section, so the parked Await can only ever observe the
// post-eviction store.
func TestResultStoreAwaitSurvivesEvictionDuringPark(t *testing.T) {
	awaitEntered := make(chan struct{}, 8)
	var armed atomic.Bool
	base := time.Unix(1700000000, 0)
	s := NewResultStore(4, time.Hour, func() time.Time {
		if armed.Load() {
			select {
			case awaitEntered <- struct{}{}:
			default:
			}
		}
		return base
	})
	if err := s.Put("x"); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	type answer struct {
		res api.AsyncResult
		ok  bool
	}
	got := make(chan answer, 1)
	go func() {
		res, ok := s.Await(context.Background(), "x", 30*time.Second)
		got <- answer{res, ok}
	}()

	<-awaitEntered // Await is inside its first locked section
	s.mu.Lock()    // acquired only after Await captured the entry and parked
	if _, ok := s.entries["x"]; !ok {
		s.mu.Unlock()
		t.Fatal("entry missing before eviction")
	}
	// Complete and capacity-evict in one critical section (what
	// Complete + a racing Put's evictOldestDoneLocked do across two).
	s.completeLocked("x", &api.InvokeResponse{Output: "late", WallNs: 9}, nil)
	evicted := s.evictOldestDoneLocked()
	_, held := s.entries["x"]
	s.mu.Unlock()
	if !evicted || held {
		t.Fatalf("eviction under the lock: evicted=%v, still held=%v", evicted, held)
	}

	a := <-got
	if !a.ok {
		t.Fatal("Await reported ok=false for a result completed during its park window")
	}
	if a.res.Status != api.AsyncDone || a.res.Response == nil || a.res.Response.WallNs != 9 {
		t.Fatalf("Await result = %+v, want the completed response", a.res)
	}
}

// TestResultStoreBounded: at capacity the oldest completed entry
// evicts; a store full of pending work sheds the submission instead.
func TestResultStoreBounded(t *testing.T) {
	s := NewResultStore(3, time.Hour, nil)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("overflow"); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("all-pending overflow err = %v, want ErrStoreFull", err)
	}
	s.Complete("p0", &api.InvokeResponse{}, nil)
	s.Complete("p1", &api.InvokeResponse{}, nil)
	if err := s.Put("new"); err != nil {
		t.Fatalf("put with evictable entries: %v", err)
	}
	if _, ok := s.Get("p0"); ok {
		t.Fatal("oldest completed entry survived eviction")
	}
	if _, ok := s.Get("p1"); !ok {
		t.Fatal("eviction took more than it needed")
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", s.Len())
	}
}

// TestResultStoreRefusesPendingRePut: a second Put of a pending id is
// refused and leaves the entry alone, so it is counted pending once
// and a long-poll parked on it wakes at its completion.
func TestResultStoreRefusesPendingRePut(t *testing.T) {
	s := NewResultStore(4, time.Minute, nil)
	if err := s.Put("a"); err != nil {
		t.Fatal(err)
	}
	got := make(chan api.AsyncResult, 1)
	go func() {
		res, _ := s.Await(context.Background(), "a", 10*time.Second)
		got <- res
	}()
	if err := s.Put("a"); !errors.Is(err, ErrIDPending) {
		t.Fatalf("re-put of a pending id: %v, want ErrIDPending", err)
	}
	if n := s.Pending(); n != 1 {
		t.Fatalf("Pending = %d after the refused re-put, want 1", n)
	}
	s.Complete("a", &api.InvokeResponse{Output: "ok"}, nil)
	select {
	case res := <-got:
		if res.Status != api.AsyncDone {
			t.Fatalf("long-poll woke with %+v, want done", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still parked after the completion")
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("Pending = %d with nothing pending", n)
	}
}

// refStore is the naive reference TestResultStoreMatchesModel holds
// ResultStore to: a map plus a completion-ordered slice, scanned in
// full on every call.
type refStore struct {
	capacity int
	ttl      time.Duration
	entries  map[string]refEntry
	done     []string // completed ids, first completed first
}

type refEntry struct {
	res    api.AsyncResult
	doneAt time.Time
}

func (r *refStore) sweep(now time.Time) {
	kept := r.done[:0]
	for _, id := range r.done {
		if now.Sub(r.entries[id].doneAt) >= r.ttl {
			delete(r.entries, id)
			continue
		}
		kept = append(kept, id)
	}
	r.done = kept
}

func (r *refStore) put(id string, now time.Time) error {
	if e, ok := r.entries[id]; ok && e.res.Status == api.AsyncPending {
		return ErrIDPending
	}
	r.sweep(now)
	if len(r.entries) >= r.capacity {
		if len(r.done) == 0 {
			return ErrStoreFull
		}
		delete(r.entries, r.done[0])
		r.done = r.done[1:]
	}
	// A re-put id starts over as pending, out of the completion order.
	r.done = slices.DeleteFunc(r.done, func(d string) bool { return d == id })
	r.entries[id] = refEntry{res: api.AsyncResult{ID: id, Status: api.AsyncPending}}
	return nil
}

func (r *refStore) complete(id string, resp *api.InvokeResponse, errResp *api.ErrorResponse, now time.Time) {
	e, ok := r.entries[id]
	if !ok || e.res.Status != api.AsyncPending {
		return
	}
	e.doneAt = now
	if errResp != nil {
		e.res.Status, e.res.Error = api.AsyncError, errResp
	} else {
		e.res.Status, e.res.Response = api.AsyncDone, resp
	}
	r.entries[id] = e
	r.done = append(r.done, id)
}

func (r *refStore) get(id string, now time.Time) (api.AsyncResult, bool) {
	r.sweep(now)
	e, ok := r.entries[id]
	return e.res, ok
}

func (r *refStore) pending() []string {
	var out []string
	for id, e := range r.entries {
		if e.res.Status == api.AsyncPending {
			out = append(out, id)
		}
	}
	return out
}

// TestResultStoreMatchesModel drives random sequences of Put,
// Complete, Get, Await(wait=0), Len and clock advances through small
// stores and checks every step against refStore: the same answers, the
// same held ids, ErrStoreFull exactly when the model is all-pending at
// capacity, ErrIDPending exactly for the re-put of a pending id, and no
// pending entry ever expired or evicted.
func TestResultStoreMatchesModel(t *testing.T) {
	const ttl = 4 * time.Second
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ck := newClock()
		capacity := 1 + rng.Intn(6)
		s := NewResultStore(capacity, ttl, ck.now)
		ref := &refStore{capacity: capacity, ttl: ttl, entries: map[string]refEntry{}}
		var ids []string // every id ever submitted, held or not
		pick := func() string {
			if len(ids) == 0 || rng.Intn(10) == 0 {
				return "never-put"
			}
			return ids[rng.Intn(len(ids))]
		}
		for step := 0; step < 300; step++ {
			var op string
			switch k := rng.Intn(12); {
			case k < 4:
				// Mostly a fresh id, as the tier submits; sometimes the
				// re-put of an old one: refused while it is pending, and
				// otherwise leaving a stale item in the store's
				// completion FIFO.
				id := pick()
				if rng.Intn(4) > 0 {
					id = "async-" + strconv.Itoa(len(ids))
					ids = append(ids, id)
				}
				op = "Put " + id
				want := ref.put(id, ck.now())
				if err := s.Put(id); !errors.Is(err, want) {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, op, err, want)
				}
			case k < 7:
				id := pick()
				op = "Complete " + id
				resp, errResp := &api.InvokeResponse{Output: id}, (*api.ErrorResponse)(nil)
				if rng.Intn(3) == 0 {
					resp, errResp = nil, &api.ErrorResponse{Error: id, Code: "unavailable"}
				}
				ref.complete(id, resp, errResp, ck.now())
				s.Complete(id, resp, errResp)
			case k < 9:
				id := pick()
				op = "Get " + id
				got, ok := s.Get(id)
				if k == 8 {
					op = "Await " + id
					got, ok = s.Await(context.Background(), id, 0)
				}
				want, wantOK := ref.get(id, ck.now())
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: %s = %+v %v, want %+v %v", seed, step, op, got, ok, want, wantOK)
				}
			case k < 10:
				op = "Len"
				ref.sweep(ck.now())
				if got := s.Len(); got != len(ref.entries) {
					t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got, len(ref.entries))
				}
			default:
				d := time.Duration(rng.Intn(5)) * time.Second
				op = "advance " + d.String()
				ck.advance(d)
			}

			pending := ref.pending()
			if got := s.Pending(); got != len(pending) {
				t.Fatalf("seed %d step %d after %s: Pending = %d, want %d", seed, step, op, got, len(pending))
			}
			s.mu.Lock()
			held := len(s.entries)
			var lost []string
			for _, id := range pending {
				if e, ok := s.entries[id]; !ok || e.res.Status != api.AsyncPending {
					lost = append(lost, id)
				}
			}
			s.mu.Unlock()
			if len(lost) > 0 {
				t.Fatalf("seed %d step %d after %s: pending %v expired or evicted", seed, step, op, lost)
			}
			if held != len(ref.entries) {
				t.Fatalf("seed %d step %d after %s: store holds %d entries, model %d", seed, step, op, held, len(ref.entries))
			}
		}
	}
}

// BenchmarkResultStoreFull: one Put+Complete+Await round on a store
// held at capacity, so every Put evicts. ns/op must not grow with
// capacity.
func BenchmarkResultStoreFull(b *testing.B) {
	resp := &api.InvokeResponse{Output: "out"}
	for _, capacity := range []int{64, 4096} {
		b.Run("cap="+strconv.Itoa(capacity), func(b *testing.B) {
			s := NewResultStore(capacity, time.Hour, nil)
			// An id comes round again capacity Puts after its eviction.
			ids := make([]string, 2*capacity)
			for i := range ids {
				ids[i] = "async-" + strconv.Itoa(i)
			}
			for _, id := range ids[:capacity] {
				if err := s.Put(id); err != nil {
					b.Fatal(err)
				}
				s.Complete(id, resp, nil)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[(capacity+i)%len(ids)]
				if err := s.Put(id); err != nil {
					b.Fatal(err)
				}
				s.Complete(id, resp, nil)
				if _, ok := s.Await(ctx, id, 0); !ok {
					b.Fatalf("%s lost before its poll", id)
				}
			}
		})
	}
}
