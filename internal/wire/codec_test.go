package wire

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
)

func TestGuestInvokeRoundTrip(t *testing.T) {
	req := api.GuestInvokeRequest{
		Function: faas.Function{
			Name: "fib-go", Language: "go", Workload: "fib",
			Source: []byte("// fib in go"),
		},
		Scale: -3, // negative scales must survive (varint, not uvarint)
		Trace: true,
	}
	got, err := DecodeGuestInvoke(AppendGuestInvoke(nil, &req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestInvokeResponseRoundTrip(t *testing.T) {
	resp := api.InvokeResponse{
		Output: "42", WallNs: 1234567, BootstrapNs: 89,
		Perf: perfmon.Stats{
			Wall: 2 * time.Millisecond, Instructions: 1e9, Cycles: 2e9,
			CacheRefs: 5, CacheMisses: 1, ContextSwitches: 3, PageFaults: 7,
			TEEExits: 11, Monitor: "perf-sim",
		},
		Secure: true, Platform: tee.KindTDX, Host: "tdx-host", VM: "tdx-host-secure",
		Trace: &obs.SpanData{Name: "invoke", Layer: "hostagent"},
	}
	b, err := AppendInvokeResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInvokeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.Trace.Name != "invoke" {
		t.Fatalf("trace lost: %+v", got.Trace)
	}
	got.Trace, resp.Trace = nil, nil
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, resp)
	}
}

// TestDecodedStringsOutliveThePayload: payload buffers go back to their
// pool after decode, so no decoded string may alias one — neither a
// closed-set identifier (decoded to its constant) nor any other value
// in the same field (copied).
func TestDecodedStringsOutliveThePayload(t *testing.T) {
	for _, id := range []struct{ monitor, platform, language string }{
		{perfmon.NamePerfStat, string(tee.KindSEV), "go"},
		{"perf-sim", "sgx", "perl"},
	} {
		resp := api.InvokeResponse{Output: "ok", Perf: perfmon.Stats{Monitor: id.monitor}, Platform: tee.Kind(id.platform), Host: "h", VM: "v"}
		rb, err := AppendInvokeResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		req := api.GuestInvokeRequest{Function: faas.Function{Name: "f", Language: id.language, Workload: "w"}}
		qb := AppendGuestInvoke(nil, &req)
		gotResp, err := DecodeInvokeResponse(rb)
		if err != nil {
			t.Fatal(err)
		}
		gotReq, err := DecodeGuestInvoke(qb)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{rb, qb} {
			for i := range b {
				b[i] = 'X'
			}
		}
		if !reflect.DeepEqual(gotResp, resp) || !reflect.DeepEqual(gotReq, req) {
			t.Errorf("%+v: decoded values changed with the payload:\n got %+v, %+v", id, gotResp, gotReq)
		}
	}
}

func TestFrontInvokeRoundTrip(t *testing.T) {
	ti := api.TenantedInvoke{
		Tenant: "acme",
		Req: api.InvokeRequest{
			Function: "primes-rust", Scale: 100, Secure: true,
			TEE: tee.KindSEV, Trace: false,
		},
	}
	got, err := DecodeFrontInvoke(AppendFrontInvoke(nil, &ti))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ti) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, ti)
	}
}

func TestAttestRoundTrip(t *testing.T) {
	req := api.AttestRequest{TEE: tee.KindCCA, Nonce: []byte{1, 2, 3, 4}}
	tenant, got, err := DecodeAttest(AppendAttest(nil, "tenant-x", &req))
	if err != nil || tenant != "tenant-x" || !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip: %q %+v %v", tenant, got, err)
	}
	resp := api.AttestResponse{Evidence: []byte("quote"), AttestNs: 5555}
	gotResp, err := DecodeAttestResp(AppendAttestResp(nil, &resp))
	if err != nil || !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("resp round trip: %+v %v", gotResp, err)
	}
}

func TestHealthRespRoundTrip(t *testing.T) {
	got, err := DecodeHealthResp(AppendHealthResp(nil, "tdx-host-secure"))
	if err != nil || got != "tdx-host-secure" {
		t.Fatalf("round trip: %q %v", got, err)
	}
}

// TestErrorRoundTrip pins the cberr taxonomy crossing the wire: code,
// layer, retryability, and retry-after must all survive the frame.
func TestErrorRoundTrip(t *testing.T) {
	orig := cberr.WithRetryAfter(
		cberr.New(cberr.CodeUnavailable, cberr.LayerFront, "tenant over quota"),
		1500*time.Millisecond)
	got, err := DecodeError(AppendError(nil, orig))
	if err != nil {
		t.Fatal(err)
	}
	var ce *cberr.Error
	if !errors.As(got, &ce) {
		t.Fatalf("decoded error is not classified: %v", got)
	}
	if ce.Code != cberr.CodeUnavailable || ce.Layer != cberr.LayerFront {
		t.Fatalf("taxonomy lost: %+v", ce)
	}
	if !cberr.Retryable(got) {
		t.Fatal("retryability lost")
	}
	if ra := cberr.RetryAfterOf(got); ra != 1500*time.Millisecond {
		t.Fatalf("retry-after = %v", ra)
	}
}

// TestDecodersRejectTruncation walks every decoder over every prefix of
// a valid payload: all must fail with ErrTruncated (or succeed at the
// full length), never panic.
func TestDecodersRejectTruncation(t *testing.T) {
	resp := api.InvokeResponse{Output: "x", Perf: perfmon.Stats{Monitor: "m"}, Host: "h"}
	respB, err := AppendInvokeResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string]struct {
		b      []byte
		decode func([]byte) error
	}{
		"guest_invoke": {AppendGuestInvoke(nil, &api.GuestInvokeRequest{
			Function: faas.Function{Name: "f", Source: []byte("src")}, Scale: 9,
		}), func(b []byte) error { _, err := DecodeGuestInvoke(b); return err }},
		"invoke_resp": {respB,
			func(b []byte) error { _, err := DecodeInvokeResponse(b); return err }},
		"front_invoke": {AppendFrontInvoke(nil, &api.TenantedInvoke{Tenant: "t"}),
			func(b []byte) error { _, err := DecodeFrontInvoke(b); return err }},
		"attest": {AppendAttest(nil, "t", &api.AttestRequest{Nonce: []byte{9}}),
			func(b []byte) error { _, _, err := DecodeAttest(b); return err }},
		"error": {AppendError(nil, errors.New("plain")),
			func(b []byte) error { _, err := DecodeError(b); return err }},
	}
	for name, tc := range payloads {
		t.Run(name, func(t *testing.T) {
			if err := tc.decode(tc.b); err != nil {
				t.Fatalf("full payload failed: %v", err)
			}
			for i := 0; i < len(tc.b); i++ {
				if err := tc.decode(tc.b[:i]); err != nil && !errors.Is(err, ErrTruncated) {
					t.Fatalf("prefix %d: untyped error %v", i, err)
				}
			}
		})
	}
}
