package wasmvm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestExportsGolden pins the result and the full ExecStats of the five
// exports the Wasm launcher maps catalog workloads onto, plus the point
// at which fuel-starved and out-of-bounds invokes stop. The first 17
// rows were recorded before the frame stack replaced per-call
// allocation, the rest (the benchmark's arguments and budgets that run
// dry inside loop bodies) before superinstructions; an interpreter
// change that keeps this file byte-identical charges every workload
// what it charged before.
func TestExportsGolden(t *testing.T) {
	cases := []struct {
		export string
		arg    int64
		fuel   uint64
	}{
		{"fib", 10, 0}, {"fib", 15, 0}, {"fib", 22, 0},
		{"sieve", 100, 0}, {"sieve", 10_000, 0}, {"sieve", 200_000, 0},
		{"matmul", 4, 0}, {"matmul", 16, 0}, {"matmul", 24, 0},
		{"cpustress", 100, 0}, {"cpustress", 5_000, 0}, {"cpustress", 50_000, 0},
		{"memstress", 4096, 0}, {"memstress", 1 << 16, 0}, {"memstress", 1 << 20, 0},
		{"fib", 22, 100_000},                             // ErrFuelExhausted inside nested calls
		{"memstress", (BenchMemPages + 1) * PageSize, 0}, // ErrOOB past the 4 MiB memory
		// The arguments the figures and guest-mix workloads run.
		{"memstress", BenchMemPages * PageSize, 0},
		{"sieve", 25_000, 0}, {"sieve", 50_000, 0},
		{"cpustress", 25_000, 0},
		{"matmul", 12, 0},
		{"fib", 2, 0}, {"fib", 5, 0},
		// Budgets that run out in the middle of a loop body: the store
		// and the load sweep, the sieve's zeroing, marking and counting
		// loops, matmul's init and inner loop, the cpustress kernel.
		{"memstress", 4096, 1_000}, {"memstress", 4096, 9_009},
		{"sieve", 100, 300}, {"sieve", 100, 1_501}, {"sieve", 100, 4_000},
		{"matmul", 4, 201}, {"matmul", 4, 2_003},
		{"cpustress", 100, 777},
	}
	var got bytes.Buffer
	for _, c := range cases {
		in := benchInstance(t)
		if c.fuel != 0 {
			in.Fuel = c.fuel
		}
		res, err := in.Invoke(c.export, c.arg)
		st := in.Stats()
		fmt.Fprintf(&got, "%s(%d) fuel=%d -> %v err=%v instr=%d mem=%d calls=%d maxstack=%d fuel_left=%d\n",
			c.export, c.arg, c.fuel, res, err, st.Instructions, st.MemBytes, st.Calls, st.MaxStack, in.Fuel)
	}
	file := filepath.Join("testdata", "exports.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exports differ from %s:\n got:\n%s\nwant:\n%s", file, got.Bytes(), want)
	}
}
