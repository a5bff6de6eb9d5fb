package api

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/cberr"
)

// TestJitterBounds: every jittered sleep stays within ±20% of the
// base and is never negative.
func TestJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	lo := time.Duration(float64(base) * (1 - backoffJitter))
	hi := time.Duration(float64(base) * (1 + backoffJitter))
	for i := 0; i < 1000; i++ {
		got := jitter(base)
		if got < lo || got > hi {
			t.Fatalf("jitter(%v) = %v, want within [%v, %v]", base, got, lo, hi)
		}
	}
}

// TestBackoffCapRegression is the regression test for the unbounded
// doubling: with a huge initial backoff the old `backoff *= 2` chain
// overflowed time.Duration into a negative value, which time.After
// treats as zero — a hot retry loop. The capped version must keep
// every sleep ≤ the cap, so a 6-attempt budget with a 1 ms cap
// finishes quickly instead of sleeping for hours (or spinning).
func TestBackoffCapRegression(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable,
			cberr.New(cberr.CodeUnavailable, cberr.LayerPool, "down"))
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithRetries(6))
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = time.Duration(math.MaxInt64 / 2) // would overflow when doubled
	c.backoffCap = time.Millisecond
	start := time.Now()
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("want unavailable error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop took %v — backoff not capped", elapsed)
	}
	if n := calls.Load(); n != 6 {
		t.Errorf("calls = %d, want 6 (full attempt budget)", n)
	}
}

// TestBackoffDefaultCap: every client caps its backoff at 5 s, from a
// first retry delay of 50 ms.
func TestBackoffDefaultCap(t *testing.T) {
	c, err := New("http://localhost:1")
	if err != nil {
		t.Fatal(err)
	}
	if c.backoffCap != 5*time.Second || c.backoff != 50*time.Millisecond {
		t.Errorf("backoff = %v capped at %v, want 50ms capped at 5s", c.backoff, c.backoffCap)
	}
}

// TestRetryAfterHonored: a server-supplied Retry-After beats the
// computed backoff in both directions. With a huge computed backoff
// (1 minute) and tiny server advice (5 ms), the retry loop must pace
// itself on the advice — finishing in well under a second proves the
// client slept the server's 5 ms, not its own 60 s.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable,
			cberr.WithRetryAfter(
				cberr.New(cberr.CodeUnavailable, cberr.LayerGateway, "shed"),
				5*time.Millisecond))
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithRetries(4))
	if err != nil {
		t.Fatal(err)
	}
	c.backoff, c.backoffCap = time.Minute, time.Minute // the advice must win over this
	start := time.Now()
	herr := c.Health(context.Background())
	if herr == nil {
		t.Fatal("want unavailable error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop took %v — server Retry-After not honored", elapsed)
	}
	if n := calls.Load(); n != 4 {
		t.Errorf("calls = %d, want 4 (full attempt budget)", n)
	}
	// The final surfaced error still carries the advice for callers.
	if ra := cberr.RetryAfterOf(herr); ra != 5*time.Millisecond {
		t.Errorf("surfaced RetryAfter = %v, want 5ms", ra)
	}
}

// TestRetryAfterCapped: hostile or clock-skewed advice cannot park the
// client — a server-supplied Retry-After of an hour is clamped to the
// backoff cap before sleeping.
func TestRetryAfterCapped(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable,
			cberr.WithRetryAfter(
				cberr.New(cberr.CodeUnavailable, cberr.LayerGateway, "shed"),
				time.Hour))
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	c.backoff, c.backoffCap = time.Millisecond, 10*time.Millisecond
	start := time.Now()
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("want unavailable error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop took %v — Retry-After not capped by the backoff cap", elapsed)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("calls = %d, want 3 (full attempt budget)", n)
	}
}

// TestRetryAfterHeaderFallback: a peer that sets only the integer-
// second Retry-After header (no ConfBench envelope field) still gets
// its advice across — the client falls back to parsing the header.
func TestRetryAfterHeaderFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"busy","code":"unavailable","retryable":true}`))
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	herr := c.Health(context.Background())
	if herr == nil {
		t.Fatal("want unavailable error")
	}
	if ra := cberr.RetryAfterOf(herr); ra != 7*time.Second {
		t.Errorf("header-only RetryAfter = %v, want 7s", ra)
	}
}

// TestWriteErrorRetryAfterWire pins both halves of the wire mapping:
// the envelope carries milliseconds, the header carries ceiling
// seconds (advice is never shortened by the coarser unit).
func TestWriteErrorRetryAfterWire(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusServiceUnavailable,
			cberr.WithRetryAfter(
				cberr.New(cberr.CodeUnavailable, cberr.LayerGateway, "shed"),
				1500*time.Millisecond))
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After header = %q, want %q (1.5s rounds up)", got, "2")
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMS != 1500 {
		t.Errorf("retry_after_ms = %d, want 1500", e.RetryAfterMS)
	}
}
