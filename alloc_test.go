//go:build !race

package confbench_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/faas"
)

// TestInvokeAllocationCeiling pins what one warmed invoke allocates on
// the binary carrier, client → gateway → relay → guest and back
// (AllocsPerRun counts the whole process). It reads 15: the output and
// the open strings each decode keeps, the invoke ID, the client's boxed
// request and response, the body's meter and fib's own allocations —
// pricing, closed-set identifiers and the gateway's per-invoke scratch
// stay off the heap (DESIGN.md §16). With pricing on maps it read 40.
func TestInvokeAllocationCeiling(t *testing.T) {
	c := newCluster(t, confbench.WithTransport("binary"), confbench.WithTEEs(confbench.KindSEV))
	client := c.Client()
	ctx := context.Background()
	fn := faas.Function{Name: "fib", Language: "go", Workload: "fib", Source: []byte("// fib in go")}
	if err := client.Upload(ctx, fn); err != nil {
		t.Fatal(err)
	}
	req := api.InvokeRequest{Function: "fib", Scale: 5, TEE: confbench.KindSEV}
	invoke := func() {
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		invoke()
	}
	const want = 16
	if got := testing.AllocsPerRun(1000, invoke); got > want {
		t.Fatalf("a warmed invoke allocates %.1f times, want at most %d", got, want)
	}
}

// TestInvokeSyscallCeiling pins the read and write syscalls of one
// warmed invoke on the binary carrier, the same path as above, from
// syscr and syscw of /proc/self/io over n invokes (the whole process,
// as AllocsPerRun counts it). It reads 6 writes and 12 reads: one
// write per loopback crossing over the six crossings of client →
// gateway → relay → guest and back, and two reads per crossing, one
// that finds the socket empty before the netpoller parks and one that
// takes the frame (DESIGN.md §10).
func TestInvokeSyscallCeiling(t *testing.T) {
	if _, err := readSyscalls(); err != nil {
		t.Skipf("no per-process syscall counts: %v", err)
	}
	c := newCluster(t, confbench.WithTransport("binary"), confbench.WithTEEs(confbench.KindSEV))
	client := c.Client()
	ctx := context.Background()
	fn := faas.Function{Name: "fib", Language: "go", Workload: "fib", Source: []byte("// fib in go")}
	if err := client.Upload(ctx, fn); err != nil {
		t.Fatal(err)
	}
	req := api.InvokeRequest{Function: "fib", Scale: 5, TEE: confbench.KindSEV}
	reads, writes := syscallsPer(t, 1000, func() {
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one binary invoke: %.2f reads, %.2f writes", reads, writes)
	if math.Round(reads) > 12 || math.Round(writes) > 6 {
		t.Errorf("a warmed invoke makes %.2f reads and %.2f writes, want at most 12 and 6", reads, writes)
	}
}

// TestEdgeExchangeSyscallCeiling does the same for one HTTP invoke
// across the REST edge on loopback, a tenant's api.Client against a
// door serving a canned reply (BenchmarkEdgeExchange's path in
// internal/door): the client writes its request in one write and the
// door its answer in one, so a body sent apart from its headers shows
// here as a third. It reads 2 writes and 4 reads, the two sides each
// reading once for the message and about once more to find the socket
// empty.
func TestEdgeExchangeSyscallCeiling(t *testing.T) {
	if _, err := readSyscalls(); err != nil {
		t.Skipf("no per-process syscall counts: %v", err)
	}
	reply := api.InvokeResponse{Output: "42", WallNs: 1_234_567, Secure: true, Platform: confbench.KindSEV}
	srv, err := door.Listen("127.0.0.1:0", door.Config{
		Routes: []door.Handler{door.Post(api.PathV1Invoke,
			func(context.Context, string, api.InvokeRequest) (api.InvokeResponse, error) { return reply, nil })},
		Layer:   cberr.LayerGateway,
		OnError: func() {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := api.New("http://"+srv.Addr(), api.WithTenant("t1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := api.InvokeRequest{Function: "fib-go", Scale: 5, Secure: true, TEE: confbench.KindSEV}
	reads, writes := syscallsPer(t, 1000, func() {
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one edge exchange: %.2f reads, %.2f writes", reads, writes)
	if math.Round(reads) > 4 || math.Round(writes) > 2 {
		t.Errorf("one edge exchange makes %.2f reads and %.2f writes, want at most 4 and 2", reads, writes)
	}
}

// syscallsPer runs op 100 times to warm it, then n times, and returns
// the read and write syscalls of the process per run. The counts are
// the whole process's, so the ceilings above compare them rounded to
// whole syscalls: what runs beside the op (a scrape, the runtime) adds
// a few hundredths, a syscall more per op adds one.
func syscallsPer(t *testing.T, n int, op func()) (reads, writes float64) {
	t.Helper()
	for i := 0; i < 100; i++ {
		op()
	}
	before, err := readSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op()
	}
	after, err := readSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	return float64(after[0]-before[0]) / float64(n), float64(after[1]-before[1]) / float64(n)
}

// readSyscalls returns syscr and syscw of /proc/self/io: the read and
// write syscalls the process has made.
func readSyscalls() ([2]uint64, error) {
	var out [2]uint64
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return out, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, value, _ := strings.Cut(line, ": ")
		for j, want := range []string{"syscr", "syscw"} {
			if name != want {
				continue
			}
			if out[j], err = strconv.ParseUint(value, 10, 64); err != nil {
				return out, err
			}
			found++
		}
	}
	if found != 2 {
		return out, fmt.Errorf("syscr or syscw missing from /proc/self/io")
	}
	return out, nil
}

// TestClusterHeapCeiling pins the live heap a booted default cluster
// holds: three TEEs, each a secure and a normal VM with one launcher
// per language. A Wasm launcher's instance backs its 4 MiB linear
// memory on a guest's first access, not at boot, so the cluster holds
// 0.6 MiB; backed at instantiation, the six instances held 24 of its
// 24.6 MiB.
func TestClusterHeapCeiling(t *testing.T) {
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	c := newCluster(t)
	after := live()
	runtime.KeepAlive(c)
	const want = 4 << 20
	got := int64(after) - int64(before)
	t.Logf("a booted cluster holds %.1f MiB of live heap", float64(got)/(1<<20))
	if got > want {
		t.Fatalf("a booted cluster holds %.1f MiB of live heap, want at most %d MiB", float64(got)/(1<<20), want>>20)
	}
}
