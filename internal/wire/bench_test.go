package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
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

// benchInvokeResp is a perf-stat reply from a SEV-SNP guest as the
// client sees it, host and VM set.
var benchInvokeResp = api.InvokeResponse{
	Output: "832040", WallNs: 1_200_000, BootstrapNs: 40_000,
	Perf: perfmon.Stats{
		Wall: 1200 * time.Microsecond, Instructions: 9_000_000, Cycles: 4_000_000,
		CacheRefs: 120_000, CacheMisses: 9_000, ContextSwitches: 2, PageFaults: 14,
		TEEExits: 7, Monitor: perfmon.NamePerfStat,
	},
	Secure: true, Platform: tee.KindSEV, Host: "sev-snp-host-1", VM: "sev-snp-host-1-secure",
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

// BenchmarkDecodeInvokeResponse decodes benchInvokeResp: the monitor
// and platform decode to constants, so the copies are output, host and
// VM.
func BenchmarkDecodeInvokeResponse(b *testing.B) {
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
// socket: guest-invoke round trips against the same in-process
// responder, serving both protocols from one sniffing listener
// (binary) and an httptest server (httpjson), from 1, 2 and 16
// concurrent callers (alone on the connection; the benchmark's client
// count; a full write batch), each reporting allocs per round trip.
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
		benchCallers(b, NewHTTPJSON(), strings.TrimPrefix(srv.URL, "http://"))
	})
	b.Run("binary", func(b *testing.B) {
		benchCallers(b, NewBinary(nil), listenBenchWire(b))
	})
}

// listenBenchWire serves benchWireHandler on a sniffing listener until
// the test or benchmark ends.
func listenBenchWire(tb testing.TB) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	sniffer := NewSniffer(ln, ServerConfig{Handler: benchWireHandler})
	tb.Cleanup(func() { sniffer.Close() })
	return ln.Addr().String()
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

func benchCallers(b *testing.B, tr Transport, addr string) {
	defer tr.Close()
	for _, callers := range []int{1, 2, 16} {
		b.Run(fmt.Sprintf("%dc", callers), func(b *testing.B) { benchRoundTrips(b, tr, addr, callers) })
	}
}

// benchRoundTrips splits b.N round trips over the given number of
// concurrent callers sharing tr.
func benchRoundTrips(b *testing.B, tr Transport, addr string, callers int) {
	ctx := context.Background()
	// Warm the connection so dial/TLS-free setup cost is off the clock.
	var resp api.InvokeResponse
	if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, &benchGuestReq, &resp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		n := b.N / callers
		if c < b.N%callers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp api.InvokeResponse
			for i := 0; i < n; i++ {
				if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, &benchGuestReq, &resp); err != nil {
					b.Error(err)
					return
				}
				if resp.Output != benchInvokeResp.Output {
					b.Errorf("response corrupted: %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRoundTripSteadyStateAllocs pins what one warmed binary round
// trip allocates, client and server side together (AllocsPerRun counts
// the whole process): the six open strings and byte slices the two
// decodes copy out of their frames (name, workload and source; output,
// host and VM — language, monitor and platform decode to constants),
// and nothing from the carrier itself — no boxed slice header per
// PutBuf, no waiter channel, no header scratch, no goroutine per frame.
// With those it read 19.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	tr := NewBinary(nil)
	defer tr.Close()
	addr := listenBenchWire(t)
	ctx := context.Background()
	var resp api.InvokeResponse
	trip := func() {
		if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, &benchGuestReq, &resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		trip()
	}
	const want = 6
	if got := testing.AllocsPerRun(1000, trip); got > want {
		t.Fatalf("a steady-state round trip allocates %.0f times, want at most %d", got, want)
	}
}
