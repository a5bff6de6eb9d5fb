package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
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

// TestWithRetriesAndTimeout: WithRetries sets the attempt budget, and
// every client bounds each attempt by attemptTimeout.
func TestWithRetriesAndTimeout(t *testing.T) {
	c, err := New("http://127.0.0.1:1", WithRetries(7))
	if err != nil {
		t.Fatal(err)
	}
	if c.maxAttempts != 7 {
		t.Errorf("maxAttempts = %d, want 7", c.maxAttempts)
	}
	if c.peer.timeout != attemptTimeout {
		t.Errorf("Timeout = %v, want %v", c.peer.timeout, attemptTimeout)
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
