package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientDefaultsToV1Prefix(t *testing.T) {
	var gotPath atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath.Store(r.URL.Path)
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer srv.Close()

	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := gotPath.Load(); got != PathV1Health {
		t.Errorf("request path = %v, want %s", got, PathV1Health)
	}
}

func TestWithRetriesAndTimeout(t *testing.T) {
	c, err := New("http://127.0.0.1:1",
		WithRetries(7),
		WithTimeout(123*time.Millisecond),
		WithBackoff(time.Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxAttempts != 7 {
		t.Errorf("MaxAttempts = %d, want 7", c.MaxAttempts)
	}
	if c.http.Timeout != 123*time.Millisecond {
		t.Errorf("Timeout = %v", c.http.Timeout)
	}
	if c.RetryBackoff != time.Microsecond {
		t.Errorf("RetryBackoff = %v", c.RetryBackoff)
	}
}

func TestWithHTTPClient(t *testing.T) {
	hc := &http.Client{}
	c, err := New("http://127.0.0.1:1", WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	if c.http != hc {
		t.Error("custom http.Client not installed")
	}
}

func TestWithTenantStampsEveryRequest(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(HeaderTenant)
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithTenant("team-blue"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "team-blue" {
		t.Errorf("tenant header = %q, want team-blue", got)
	}
	// The default client stays unstamped — the server applies
	// TenantDefault, not the client.
	plain, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Errorf("unconfigured client sent tenant header %q", got)
	}
}
