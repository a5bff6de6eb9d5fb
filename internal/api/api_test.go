package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/tee"
)

func mustClient(t *testing.T, url string) *Client {
	t.Helper()
	c, err := New(url)
	if err != nil {
		t.Fatalf("New(%q): %v", url, err)
	}
	return c
}

func TestWriteJSONAndError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusTeapot, map[string]int{"x": 1})
	if rec.Code != http.StatusTeapot {
		t.Errorf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	rec = httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, errors.New("boom"))
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "boom" {
		t.Errorf("error envelope = %q, %v", rec.Body.String(), err)
	}
	// An unclassified error still gets a wire code from the status.
	if e.Code != cberr.CodeInvalid {
		t.Errorf("code = %q, want %q", e.Code, cberr.CodeInvalid)
	}
}

func TestWriteErrorCarriesTaxonomy(t *testing.T) {
	rec := httptest.NewRecorder()
	err := cberr.New(cberr.CodeUnavailable, cberr.LayerPool, "no endpoints")
	WriteError(rec, cberr.HTTPStatus(err), err)
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != cberr.CodeUnavailable || e.Layer != cberr.LayerPool || !e.Retryable {
		t.Errorf("envelope = %+v", e)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestNewClientValidation(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:8080", "ftp://host", "http://", "://x"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		} else if cberr.CodeOf(err) != cberr.CodeInvalid {
			t.Errorf("New(%q) code = %q", bad, cberr.CodeOf(err))
		}
	}
	c := mustClient(t, "http://127.0.0.1:1/")
	if c.maxAttempts != DefaultMaxAttempts {
		t.Errorf("maxAttempts = %d", c.maxAttempts)
	}
}

func TestClientDecodesErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusConflict, errors.New("function exists"))
	}))
	defer srv.Close()
	c := mustClient(t, srv.URL)
	err := c.Upload(context.Background(), faas.Function{Name: "x", Language: "go", Workload: "w"})
	if err == nil || !strings.Contains(err.Error(), "function exists") {
		t.Errorf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "409") {
		t.Errorf("status code missing from error: %v", err)
	}
	if cberr.CodeOf(err) != cberr.CodeConflict {
		t.Errorf("code = %q, want conflict", cberr.CodeOf(err))
	}
}

func TestClientNonJSONErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "plain text failure", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := mustClient(t, srv.URL)
	if err := c.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("err = %v", err)
	}
}

func TestClientRoundTripsInvoke(t *testing.T) {
	want := InvokeResponse{
		Output:   "ok",
		WallNs:   int64(3 * time.Millisecond),
		Secure:   true,
		Platform: tee.KindTDX,
		Host:     "h",
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req InvokeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if req.Function != "fn" || !req.Secure || req.TEE != tee.KindTDX {
			WriteError(w, http.StatusBadRequest, errors.New("request fields lost"))
			return
		}
		WriteJSON(w, http.StatusOK, want)
	}))
	defer srv.Close()
	got, err := mustClient(t, srv.URL).Invoke(context.Background(), InvokeRequest{Function: "fn", Secure: true, TEE: tee.KindTDX})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output || got.Wall() != 3*time.Millisecond || got.Host != "h" {
		t.Errorf("got %+v", got)
	}
}

func TestClientConnectionRefused(t *testing.T) {
	ctx := context.Background()
	c := mustClient(t, "http://127.0.0.1:1")
	c.maxAttempts = 1 // connection refused is retryable; keep the test fast
	if err := c.Health(ctx); err == nil {
		t.Error("expected connection error")
	} else if cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Errorf("code = %q, want unavailable", cberr.CodeOf(err))
	}
	if _, err := c.Functions(ctx); err == nil {
		t.Error("expected connection error")
	}
	if _, err := c.Pools(ctx); err == nil {
		t.Error("expected connection error")
	}
	if _, err := c.Attest(ctx, AttestRequest{}); err == nil {
		t.Error("expected connection error")
	}
}

func TestClientRetriesRetryable(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) < 3 {
			WriteError(w, http.StatusServiceUnavailable,
				cberr.New(cberr.CodeUnavailable, cberr.LayerPool, "warming up"))
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	defer srv.Close()
	c := mustClient(t, srv.URL)
	c.backoff = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("calls = %d, want 3", n)
	}
}

func TestClientDoesNotRetryNonRetryable(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusConflict, cberr.New(cberr.CodeConflict, cberr.LayerFaaS, "exists"))
	}))
	defer srv.Close()
	c := mustClient(t, srv.URL)
	c.backoff = time.Millisecond
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("calls = %d, want 1 (conflict must not be retried)", n)
	}
}

func TestClientCanceledContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := mustClient(t, srv.URL).Health(ctx)
	if !errors.Is(err, cberr.ErrCanceled) {
		t.Errorf("err = %v, want cberr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
}

func TestClientDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := mustClient(t, srv.URL).Health(ctx)
	if cberr.CodeOf(err) != cberr.CodeDeadline {
		t.Errorf("err = %v, want deadline code", err)
	}
}

func TestInvokeResponseWall(t *testing.T) {
	r := InvokeResponse{WallNs: 1_500_000}
	if r.Wall() != 1500*time.Microsecond {
		t.Errorf("Wall = %v", r.Wall())
	}
}
