package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/cberr"
)

// TestClientDoesNotFollowRedirects: a 3xx is an answer like any other
// non-2xx, classified by its status; the Location is never fetched.
func TestClientDoesNotFollowRedirects(t *testing.T) {
	var followed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/elsewhere" {
			followed.Store(true)
			WriteJSON(w, http.StatusOK, InvokeResponse{Output: "moved"})
			return
		}
		http.Redirect(w, r, "/elsewhere", http.StatusTemporaryRedirect)
	}))
	defer srv.Close()
	_, err := mustClient(t, srv.URL).Invoke(context.Background(), InvokeRequest{Function: "fn"})
	var ce *cberr.Error
	if !errors.As(err, &ce) || ce.Code != cberr.CodeInternal || cberr.Retryable(err) {
		t.Errorf("err = %v, want a non-retryable classified internal error", err)
	}
	if followed.Load() {
		t.Error("the client followed the redirect")
	}
}

// TestClientAttemptTimeoutIsDeadline: an attempt that outlives the
// per-attempt timeout (the caller's context still live) fails with the
// deadline code.
func TestClientAttemptTimeoutIsDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)
	c := mustClient(t, srv.URL)
	c.maxAttempts, c.peer.timeout = 1, 20*time.Millisecond
	err := c.Health(context.Background())
	if cberr.CodeOf(err) != cberr.CodeDeadline {
		t.Errorf("err = %v, want deadline code", err)
	}
}

// TestClientEscapedPath: a path with an escaped segment reaches the
// server as written, as it did when every request URL was parsed whole.
func TestClientEscapedPath(t *testing.T) {
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.RequestURI)
		WriteJSON(w, http.StatusOK, AsyncResult{ID: "a/b c", Status: AsyncPending})
	}))
	defer srv.Close()
	if _, err := mustClient(t, srv.URL).ResultWait(context.Background(), "a/b c", time.Second); err != nil {
		t.Fatal(err)
	}
	if want := "/v1/invoke/a%2Fb%20c?wait=1s"; got.Load() != want {
		t.Errorf("request URI = %v, want %s", got.Load(), want)
	}
}

// TestClientRefusesBadTenant: a tenant no header value can carry is
// never written; every attempt fails as http.Transport failed it, as an
// unavailable error.
func TestClientRefusesBadTenant(t *testing.T) {
	var reqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { reqs.Add(1) }))
	defer srv.Close()
	c, err := New(srv.URL, WithTenant("a\r\nX-Evil: 1"), WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Errorf("err = %v, want unavailable", err)
	}
	if reqs.Load() != 0 {
		t.Errorf("the server saw %d requests", reqs.Load())
	}
}
