package workloads

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"confbench/internal/meter"
)

func TestDefaultCatalogSize(t *testing.T) {
	r := Default()
	if r.Len() < 25 {
		t.Errorf("catalog has %d workloads, the paper reports 25", r.Len())
	}
}

func TestCatalogContainsPaperFunctions(t *testing.T) {
	r := Default()
	// The six functions §IV-D names explicitly.
	for _, name := range []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"} {
		w, err := r.Lookup(name)
		if err != nil {
			t.Errorf("paper function %q missing: %v", name, err)
			continue
		}
		if w.Description == "" || w.DefaultScale <= 0 {
			t.Errorf("%q lacks metadata: %+v", name, w)
		}
	}
}

func TestEveryWorkloadRunsAndMeters(t *testing.T) {
	r := Default()
	for _, name := range r.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := r.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m := meter.NewContext()
			scale := smallScale(w)
			out, err := w.Run(m, scale)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out == "" {
				t.Error("empty output")
			}
			u := m.Snapshot()
			var total uint64
			for _, c := range meter.AllCounters() {
				total += u.Get(c)
			}
			if total == 0 {
				t.Error("workload metered nothing")
			}
		})
	}
}

// smallScale shrinks each workload for fast unit runs while staying
// within per-workload bounds.
func smallScale(w Workload) int {
	s := w.DefaultScale / 10
	if s < 1 {
		s = 1
	}
	switch w.Name {
	case "ack":
		return 4
	case "fib":
		return 12
	case "queens":
		return 6
	case "fannkuch":
		return 6
	case "binarytrees":
		return 6
	case "collatz", "primes":
		return 1000
	}
	return s
}

func TestWorkloadsDeterministicOutput(t *testing.T) {
	r := Default()
	for _, name := range r.Names() {
		w, _ := r.Lookup(name)
		scale := smallScale(w)
		m1, m2 := meter.NewContext(), meter.NewContext()
		out1, err1 := w.Run(m1, scale)
		out2, err2 := w.Run(m2, scale)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", name, err1, err2)
		}
		if out1 != out2 {
			t.Errorf("%s output not deterministic: %q vs %q", name, out1, out2)
		}
	}
}

func TestWorkloadsRejectBadScale(t *testing.T) {
	r := Default()
	for _, name := range r.Names() {
		w, _ := r.Lookup(name)
		if _, err := w.Run(meter.NewContext(), -1); err == nil {
			t.Errorf("%s accepted negative scale", name)
		}
	}
}

func TestKindsAssigned(t *testing.T) {
	r := Default()
	kinds := map[Kind]int{}
	for _, name := range r.Names() {
		w, _ := r.Lookup(name)
		kinds[w.Kind]++
	}
	for _, k := range []Kind{KindCPU, KindMemory, KindIO, KindMixed} {
		if kinds[k] == 0 {
			t.Errorf("no workloads of kind %s", k)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Default().Lookup("no-such-workload"); err == nil {
		t.Error("unknown lookup should error")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	w := Workload{Name: "dup", Run: runFactors, DefaultScale: 1}
	if _, err := NewRegistry([]Workload{w, w}); err == nil {
		t.Error("duplicate names should be rejected")
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	if _, err := NewRegistry([]Workload{{Name: ""}}); err == nil {
		t.Error("nameless workload should be rejected")
	}
	if _, err := NewRegistry([]Workload{{Name: "x", Run: nil}}); err == nil {
		t.Error("runless workload should be rejected")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Default().Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted at %d: %s >= %s", i, names[i-1], names[i])
		}
	}
}

func TestFactorsCorrect(t *testing.T) {
	m := meter.NewContext()
	out, err := runFactors(m, 12)
	if err != nil {
		t.Fatal(err)
	}
	// 12 = 1,2,3,4,6,12 → 6 factors.
	if !strings.HasPrefix(out, "6 ") {
		t.Errorf("factors(12) = %q, want 6 factors", out)
	}
}

func TestPrimesCorrect(t *testing.T) {
	m := meter.NewContext()
	out, err := runPrimes(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "25 ") {
		t.Errorf("primes(100) = %q, want 25 primes", out)
	}
}

func TestQueensCorrect(t *testing.T) {
	m := meter.NewContext()
	out, err := runQueens(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "92 ") {
		t.Errorf("queens(8) = %q, want 92 solutions", out)
	}
}

func TestAckermannCorrect(t *testing.T) {
	m := meter.NewContext()
	out, err := runAckermann(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out != "ack(2,3)=9" {
		t.Errorf("ack = %q", out)
	}
}

func TestFibCorrect(t *testing.T) {
	m := meter.NewContext()
	out, err := runFib(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out != "fib(10)=55" {
		t.Errorf("fib = %q", out)
	}
}

func TestSortWorkloadsSortProperty(t *testing.T) {
	// quicksort and mergesort verify their own output; a run without
	// error implies sortedness. Property: both agree on the median for
	// any scale.
	f := func(raw uint8) bool {
		scale := int(raw)%500 + 10
		m := meter.NewContext()
		q, err1 := runQuicksort(m, scale)
		g, err2 := runMergesort(m, scale)
		_ = g
		return err1 == nil && err2 == nil && q != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIOWorkloadsMeterIO(t *testing.T) {
	for _, name := range []string{"iostress", "dd", "filesystem", "fileindex"} {
		w, err := Default().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m := meter.NewContext()
		if _, err := w.Run(m, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u := m.Snapshot()
		if u.Get(meter.IOReadBytes)+u.Get(meter.IOWriteBytes) == 0 {
			t.Errorf("%s metered no storage I/O", name)
		}
	}
}

func TestLoggingMetersLines(t *testing.T) {
	m := meter.NewContext()
	if _, err := runLogging(m, 123); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(meter.LogLines); got != 123 {
		t.Errorf("log lines = %d", got)
	}
}

func TestVFSSemantics(t *testing.T) {
	m := meter.NewContext()
	fs := newVFS(m)
	if err := fs.mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	// Missing parent.
	if err := fs.mkdir("/x/y"); err == nil {
		t.Error("mkdir without parent should fail")
	}
	if err := fs.create("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.write("/a/b/f", []byte("hello"), 2); err != nil {
		t.Fatal(err)
	}
	data, err := fs.read("/a/b/f", 2)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// Non-empty dir cannot be removed.
	if err := fs.remove("/a/b"); err == nil {
		t.Error("rmdir of non-empty dir should fail")
	}
	if err := fs.remove("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.remove("/nope"); err == nil {
		t.Error("removing missing entry should fail")
	}
}

func TestMandelbrotStable(t *testing.T) {
	m := meter.NewContext()
	a, err := runMandelbrot(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runMandelbrot(m, 32)
	if a != b {
		t.Errorf("mandelbrot unstable: %q vs %q", a, b)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	m := meter.NewContext()
	out, err := runCompress(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "ratio=") {
		t.Errorf("compress output %q", out)
	}
	// Log-like text must compress well.
	ratio, err := strconv.ParseFloat(strings.TrimPrefix(out, "ratio="), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", out, err)
	}
	if ratio >= 0.5 {
		t.Errorf("compression ratio %v too poor", ratio)
	}
}

func TestPatternMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 12, 255, 256, 257, 1000, 1<<16 + 3} {
		got := pattern(n, 29)
		if len(got) != n {
			t.Fatalf("pattern(%d) has %d bytes", n, len(got))
		}
		for i, b := range got {
			if want := byte(i)*31 + 29; b != want {
				t.Fatalf("pattern(%d)[%d] = %d, want %d", n, i, b, want)
			}
		}
	}
}

// The fmt-built text is the reference the append-built one replaced.
func TestCompressibleTextMatchesFmt(t *testing.T) {
	var ref strings.Builder
	for i := 0; ref.Len() < 1<<16; i++ {
		fmt.Fprintf(&ref, "ts=%010d level=%s component=storage msg=\"flushed segment %d to tier %d\"\n",
			i, []string{"info", "warn", "debug"}[i%3], i, i%4)
	}
	for _, n := range []int{0, 1, 80, 81, 4096, 1 << 16} {
		if got := string(compressibleText(n)); got != ref.String()[:n] {
			t.Errorf("compressibleText(%d) differs from the fmt reference", n)
		}
	}
	if got := string(appendPadded(nil, 12345678901, 10)); got != "12345678901" {
		t.Errorf("appendPadded past the width = %q", got)
	}
}
