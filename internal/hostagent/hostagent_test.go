package hostagent

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/faultplane"
	"confbench/internal/tee"
	"confbench/internal/tee/tdx"
)

func newAgent(t *testing.T) *Agent {
	t.Helper()
	backend, err := tdx.NewBackend(tdx.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{
		Name:    "test-host",
		Backend: backend,
		Guest:   tee.GuestConfig{MemoryMB: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestAgentEndpoints(t *testing.T) {
	a := newAgent(t)
	eps := a.Endpoints()
	if len(eps) != 2 {
		t.Fatalf("endpoints = %d, want secure+normal", len(eps))
	}
	secure, err := a.Endpoint(true)
	if err != nil || !secure.Secure || secure.TEE != tee.KindTDX {
		t.Errorf("secure endpoint = %+v, %v", secure, err)
	}
	normal, err := a.Endpoint(false)
	if err != nil || normal.Secure {
		t.Errorf("normal endpoint = %+v, %v", normal, err)
	}
	if secure.Addr == normal.Addr {
		t.Error("both VMs share one port")
	}
}

func TestInvokeThroughRelay(t *testing.T) {
	a := newAgent(t)
	ep, err := a.Endpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	req := api.GuestInvokeRequest{
		Function: faas.Function{Name: "f", Language: "go", Workload: "factors"},
		Scale:    5040,
	}
	var resp api.InvokeResponse
	if code := postJSON(t, "http://"+ep.Addr+api.GuestV1Invoke, req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Output == "" || !resp.Secure || resp.Platform != tee.KindTDX {
		t.Errorf("response = %+v", resp)
	}
	if resp.WallNs <= 0 {
		t.Error("no timing piggybacked")
	}
	if resp.Perf.Monitor == "" {
		t.Error("no perf metrics piggybacked")
	}
	// Traffic must actually have crossed the relay.
	accepted, bytesFwd := a.RelayStats()
	if accepted == 0 || bytesFwd == 0 {
		t.Errorf("relay stats = %d conns, %d bytes", accepted, bytesFwd)
	}
}

func TestInvokeErrorsSurface(t *testing.T) {
	a := newAgent(t)
	ep, _ := a.Endpoint(true)
	req := api.GuestInvokeRequest{
		Function: faas.Function{Name: "f", Language: "cobol", Workload: "factors"},
	}
	// An unknown language is a caller mistake, classified invalid_request.
	if code := postJSON(t, "http://"+ep.Addr+api.GuestV1Invoke, req, nil); code != http.StatusBadRequest {
		t.Errorf("status = %d", code)
	}
}

func TestInvokeRejectsGet(t *testing.T) {
	a := newAgent(t)
	ep, _ := a.Endpoint(true)
	resp, err := http.Get("http://" + ep.Addr + api.GuestV1Invoke)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestAttestThroughRelay(t *testing.T) {
	a := newAgent(t)
	secure, _ := a.Endpoint(true)
	var resp api.AttestResponse
	req := api.AttestRequest{TEE: tee.KindTDX, Nonce: []byte("nonce")}
	if code := postJSON(t, "http://"+secure.Addr+api.GuestV1Attest, req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Evidence) == 0 || resp.AttestNs <= 0 {
		t.Errorf("attest response = %+v", resp)
	}
	// The normal VM cannot attest.
	normal, _ := a.Endpoint(false)
	if code := postJSON(t, "http://"+normal.Addr+api.GuestV1Attest, req, nil); code != http.StatusInternalServerError {
		t.Errorf("normal attest status = %d", code)
	}
}

func TestGuestHealth(t *testing.T) {
	a := newAgent(t)
	for _, ep := range a.Endpoints() {
		resp, err := http.Get("http://" + ep.Addr + api.GuestV1Health)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s health = %d", ep.VMName, resp.StatusCode)
		}
	}
}

func TestAgentCloseTearsDown(t *testing.T) {
	backend, err := tdx.NewBackend(tdx.Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{Backend: backend, Guest: tee.GuestConfig{MemoryMB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := a.Endpoint(true)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 500 * time.Millisecond}
	if _, err := client.Get("http://" + ep.Addr + api.GuestV1Health); err == nil {
		t.Error("closed agent still serving")
	}
	// VMs must be stopped.
	if _, err := a.Pair().Secure.InvokeFunction(context.Background(), faas.Function{Name: "f", Language: "go", Workload: "factors"}, 1); err == nil {
		t.Error("VM alive after close")
	}
}

func TestAgentRejectsNilBackend(t *testing.T) {
	if _, err := NewAgent(AgentConfig{}); err == nil {
		t.Error("nil backend accepted")
	}
}

// TestAgentLaunchFault: an error fault armed at hostagent.launch
// keeps the host from coming up, and a latency fault merely delays
// it.
func TestAgentLaunchFault(t *testing.T) {
	backend, err := tdx.NewBackend(tdx.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	plane := faultplane.New(1)
	if err := plane.Register(faultplane.Spec{
		Point:       faultplane.PointHostLaunch,
		Kind:        faultplane.KindError,
		Host:        "doomed-host",
		Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	_, err = NewAgent(AgentConfig{
		Name:    "doomed-host",
		Backend: backend,
		Guest:   tee.GuestConfig{MemoryMB: 8},
		Faults:  plane,
	})
	if err == nil {
		t.Fatal("launch with an armed error fault should fail")
	}
	if !cberr.Retryable(err) {
		t.Errorf("launch fault should classify retryable, got %v", err)
	}

	// A differently-named host does not match the filter and boots.
	a, err := NewAgent(AgentConfig{
		Name:    "healthy-host",
		Backend: backend,
		Guest:   tee.GuestConfig{MemoryMB: 8},
		Faults:  plane,
	})
	if err != nil {
		t.Fatalf("unfaulted host failed to boot: %v", err)
	}
	_ = a.Close()
}

// TestGuestServerExecFault: an error fault at hostagent.exec surfaces
// as a retryable 503 from the guest agent, while unfaulted VMs on
// other hosts keep serving.
func TestGuestServerExecFault(t *testing.T) {
	backend, err := tdx.NewBackend(tdx.Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	plane := faultplane.New(1)
	if err := plane.Register(faultplane.Spec{
		Point:       faultplane.PointHostExec,
		Kind:        faultplane.KindError,
		Host:        "faulted-host",
		Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{
		Name:    "faulted-host",
		Backend: backend,
		Guest:   tee.GuestConfig{MemoryMB: 8},
		Faults:  plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	ep, err := a.Endpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	req := api.GuestInvokeRequest{
		Function: faas.Function{Name: "f", Language: "go", Workload: "cpustress"},
		Scale:    1,
	}
	status := postJSON(t, "http://"+ep.Addr+api.GuestV1Invoke, req, nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("faulted exec status = %d, want %d", status, http.StatusServiceUnavailable)
	}
	if plane.Injected() == 0 {
		t.Error("no injection recorded")
	}
}
