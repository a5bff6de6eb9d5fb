package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/perfmon"
)

// benchGuestReq is a realistic invoke frame: a small source blob and
// the fields every hop carries.
var benchGuestReq = api.GuestInvokeRequest{
	Function: faas.Function{
		Name: "fib-go", Language: "go", Workload: "fib",
		Source: []byte("package main\nfunc fib(n int) int { if n < 2 { return n }; return fib(n-1) + fib(n-2) }"),
	},
	Scale: 30,
}

var benchInvokeResp = api.InvokeResponse{
	Output: "832040", WallNs: 1_200_000, BootstrapNs: 40_000,
	Perf: perfmon.Stats{
		Wall: 1200 * time.Microsecond, Instructions: 9_000_000, Cycles: 4_000_000,
		CacheRefs: 120_000, CacheMisses: 9_000, ContextSwitches: 2, PageFaults: 14,
		TEEExits: 7, Monitor: "perf-sim",
	},
	Secure: true, Platform: "tdx", Host: "host-0", VM: "host-0-secure",
}

// BenchmarkCodecEncodeGuestInvoke measures the steady-state encode
// path with a recycled buffer — the zero-alloc target.
func BenchmarkCodecEncodeGuestInvoke(b *testing.B) {
	buf := GetBuf(0)
	defer PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendGuestInvoke(buf[:0], &benchGuestReq)
	}
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
}

func BenchmarkCodecDecodeGuestInvoke(b *testing.B) {
	payload := AppendGuestInvoke(nil, &benchGuestReq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeGuestInvoke(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeInvokeResponse(b *testing.B) {
	buf := GetBuf(0)
	defer PutBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendInvokeResponse(buf[:0], &benchInvokeResp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeInvokeResponse(b *testing.B) {
	payload, err := AppendInvokeResponse(nil, &benchInvokeResp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInvokeResponse(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecFrameHeader isolates the fixed-cost frame machinery.
func BenchmarkCodecFrameHeader(b *testing.B) {
	hdr := make([]byte, 0, HeaderSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr = AppendHeader(hdr[:0], api.FrameInvokeReq, uint64(i), 512)
		if _, err := ParseHeader(hdr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportRoundTrip compares the two carriers over a real
// socket: one guest-invoke round trip per iteration against the same
// in-process responder, serving both protocols from one sniffing
// listener (binary) and an httptest server (httpjson).
func BenchmarkTransportRoundTrip(b *testing.B) {
	b.Run("httpjson", func(b *testing.B) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req api.GuestInvokeRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode(benchInvokeResp)
		}))
		defer srv.Close()
		benchRoundTrips(b, NewHTTPJSON(), strings.TrimPrefix(srv.URL, "http://"))
	})
	b.Run("binary", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		sniffer := NewSniffer(ln, ServerConfig{Handler: benchWireHandler})
		defer sniffer.Close()
		go func() {
			// Nothing arrives as HTTP in this benchmark; drain so the
			// sniffer never blocks if a stray probe shows up.
			for {
				c, err := sniffer.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		benchRoundTrips(b, NewBinary(nil), ln.Addr().String())
	})
}

func benchWireHandler(ctx context.Context, ft Type, payload []byte) (Type, []byte, error) {
	if ft != api.FrameInvokeReq {
		return 0, nil, fmt.Errorf("%w: unhandled %s", ErrSever, ft)
	}
	if _, err := DecodeGuestInvoke(payload); err != nil {
		return 0, nil, err
	}
	out, err := AppendInvokeResponse(GetBuf(0), &benchInvokeResp)
	if err != nil {
		return 0, nil, err
	}
	return api.FrameInvokeResp, out, nil
}

func benchRoundTrips(b *testing.B, tr Transport, addr string) {
	defer tr.Close()
	ctx := context.Background()
	// Warm the connection so dial/TLS-free setup cost is off the clock.
	var resp api.InvokeResponse
	if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, &benchGuestReq, &resp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, &benchGuestReq, &resp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if resp.Output != benchInvokeResp.Output {
		b.Fatalf("response corrupted: %+v", resp)
	}
}
