package hostagent

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
	"confbench/internal/wire"
)

// TestGuestWireDoor drives every binary frame type the guest agent
// accepts through its sniffed front door — across the relay hop, like
// gateway traffic — and checks each response against what the HTTP
// surface serves for the same request.
func TestGuestWireDoor(t *testing.T) {
	a := newAgent(t)
	ep, err := a.Endpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	bt := wire.NewBinary(nil)
	defer bt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Invoke.
	req := api.GuestInvokeRequest{
		Function: faas.Function{Name: "f", Language: "go", Workload: "factors"},
		Scale:    5040,
	}
	var resp api.InvokeResponse
	if err := bt.RoundTrip(ctx, ep.Addr, api.GuestV1Invoke, &req, &resp); err != nil {
		t.Fatalf("wire invoke: %v", err)
	}
	if resp.Output == "" || !resp.Secure || resp.Platform != tee.KindTDX {
		t.Errorf("wire invoke response = %+v", resp)
	}
	if resp.WallNs <= 0 || resp.Perf.Monitor == "" {
		t.Errorf("wire invoke lost the piggybacked timing/perf: %+v", resp)
	}

	// Invoke errors keep their classification across the TError frame.
	bad := api.GuestInvokeRequest{
		Function: faas.Function{Name: "f", Language: "cobol", Workload: "factors"},
	}
	err = bt.RoundTrip(ctx, ep.Addr, api.GuestV1Invoke, &bad, &resp)
	var ce *cberr.Error
	if !errors.As(err, &ce) || ce.Code != cberr.CodeInvalid {
		t.Errorf("wire invoke error = %v, want classified %s", err, cberr.CodeInvalid)
	}

	// Attest.
	var att api.AttestResponse
	areq := api.AttestRequest{TEE: tee.KindTDX, Nonce: []byte("nonce")}
	if err := bt.RoundTrip(ctx, ep.Addr, api.GuestV1Attest, &areq, &att); err != nil {
		t.Fatalf("wire attest: %v", err)
	}
	if len(att.Evidence) == 0 || att.AttestNs <= 0 {
		t.Errorf("wire attest response = %+v", att)
	}

	// Health (fire-and-check: nil out just confirms a non-error frame).
	if err := bt.RoundTrip(ctx, ep.Addr, api.GuestV1Health, nil, nil); err != nil {
		t.Fatalf("wire health: %v", err)
	}

	// Obs: the snapshot rides as JSON and must show the invokes above.
	var snap obs.Snapshot
	if err := bt.RoundTrip(ctx, ep.Addr, api.GuestV1Obs, nil, &snap); err != nil {
		t.Fatalf("wire obs: %v", err)
	}
	vmName := a.guests[0].VM().Name()
	if got := snap.Counters[obs.MetricID("confbench_hostagent_requests_total", "vm", vmName)]; got == 0 {
		t.Errorf("obs snapshot over wire shows no requests for %s", vmName)
	}
}

// TestGuestWireRejectsUnknownFrame hand-crafts a frame of a type the
// guest never serves (a response type) and expects a classified TError
// back — the handler's catch-all branch.
func TestGuestWireRejectsUnknownFrame(t *testing.T) {
	a := newAgent(t)
	ep, _ := a.Endpoint(true)
	conn, err := net.DialTimeout("tcp", ep.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := wire.AppendFrame(nil, api.FrameInvokeResp, 7, []byte("junk"))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	defer wire.PutBuf(payload)
	if h.Type != api.FrameError || h.Corr != 7 {
		t.Fatalf("frame = %s corr %d, want %s corr 7", h.Type, h.Corr, api.FrameError)
	}
	werr, derr := wire.DecodeError(payload)
	if derr != nil {
		t.Fatal(derr)
	}
	var ce *cberr.Error
	if !errors.As(werr, &ce) || ce.Code != cberr.CodeInvalid {
		t.Errorf("error = %v, want classified %s", werr, cberr.CodeInvalid)
	}
}

// TestGuestObsEndpoint scrapes the guest agent's metrics door in both
// formats and checks the method guard.
func TestGuestObsEndpoint(t *testing.T) {
	a := newAgent(t)
	ep, _ := a.Endpoint(true)
	base := "http://" + ep.Addr + api.GuestV1Obs
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape status %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(prom), "confbench_") {
		t.Error("prometheus scrape carries no confbench metrics")
	}

	resp, err = client.Get(base + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("json scrape: %v", err)
	}
	resp.Body.Close()

	// The Accept header negotiates JSON too, as on gateway and tier.
	req, _ := http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Accept", "application/json")
	if resp, err = client.Do(req); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Errorf("Accept: application/json scrape: %v", err)
	}
	resp.Body.Close()

	resp, err = client.Post(base, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

// TestWarmAgent boots a host whose secure VM comes out of a prewarmed
// guest pool and checks the warm plumbing end to end: the pool handle,
// the warm-marked endpoint, a real invoke through the relay, and the
// accessor surface.
func TestWarmAgent(t *testing.T) {
	backend, err := tdx.NewBackend(tdx.Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	a, err := NewAgent(AgentConfig{
		Name:     "warm-host",
		Backend:  backend,
		Guest:    tee.GuestConfig{MemoryMB: 8},
		Obs:      reg,
		WarmPool: 2,
		Cache:    vm.NewSnapshotCache(64<<20, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if a.Name() != "warm-host" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.Backend().Kind() != tee.KindTDX {
		t.Errorf("Backend kind = %s", a.Backend().Kind())
	}
	if a.Pool() == nil {
		t.Fatal("warm agent has no pool handle")
	}
	if pair := a.Pair(); pair.Secure == nil || pair.Normal == nil {
		t.Fatalf("pair = %+v", pair)
	}

	secure, err := a.Endpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if !secure.Warm {
		t.Error("secure endpoint not marked warm despite the pool")
	}
	normal, _ := a.Endpoint(false)
	if normal.Warm {
		t.Error("normal endpoint marked warm; only the secure VM is pooled")
	}

	req := api.GuestInvokeRequest{
		Function: faas.Function{Name: "f", Language: "go", Workload: "factors"},
		Scale:    42,
	}
	var resp api.InvokeResponse
	if code := postJSON(t, "http://"+secure.Addr+api.GuestV1Invoke, req, &resp); code != http.StatusOK {
		t.Fatalf("warm invoke status %d", code)
	}
	if resp.Output == "" || !resp.Secure {
		t.Errorf("warm invoke response = %+v", resp)
	}
}
