package wasmvm

import (
	"errors"
	"testing"
)

// diveModule holds dive(n, addr): n nested calls deep it stores at
// addr; on the way back up each level adds the n it kept in an extra
// local across the call. Every frame therefore carries live locals
// when the innermost one traps.
func diveModule(t *testing.T) *Module {
	t.Helper()
	mb := NewModuleBuilder().WithMemory(1)
	fb := NewFuncBuilder("dive", 2, 1, 1)
	fb.LocalGet(0).I64Eqz().If().
		LocalGet(1).I64Const(7).I64Store(0).
		I64Const(1).Return().
		End()
	fb.LocalGet(0).LocalSet(2)
	fb.LocalGet(0).I64Const(1).I64Sub().LocalGet(1).Call(0)
	fb.LocalGet(2).I64Add()
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestFailedInvokeLeavesInstanceReusable: a trap raised inside nested
// calls unwinds through frames that are never popped one by one, so
// Invoke itself has to leave the instance-owned frame stack empty —
// otherwise the next invoke on a launcher's long-lived instance would
// start above the wreckage and grow it without bound.
func TestFailedInvokeLeavesInstanceReusable(t *testing.T) {
	m := diveModule(t)
	fresh := func() *Instance {
		in, err := NewInstance(m)
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		return in
	}
	// Deep enough that the frame stack regrows under callers whose
	// locals are read after the nested call returns.
	const depth = 500
	ref := fresh()
	wantRes, err := ref.Invoke("dive", depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + depth*(depth+1)/2); wantRes[0] != want {
		t.Fatalf("dive(%d) = %d, want %d", depth, wantRes[0], want)
	}
	wantStats := ref.Stats()

	in := fresh()
	failures := []struct {
		name string
		fuel uint64
		n    int64
		addr int64
		want error
	}{
		{"fuel", 300, 100, 0, ErrFuelExhausted},
		{"oob", DefaultFuel, 25, PageSize, ErrOOB},
		{"depth", DefaultFuel, MaxCallDepth + 8, 0, ErrCallDepth},
	}
	for _, f := range failures {
		in.Fuel = f.fuel
		if _, err := in.Invoke("dive", f.n, f.addr); !errors.Is(err, f.want) {
			t.Fatalf("%s: want %v, got %v", f.name, f.want, err)
		}
		if len(in.frames) != 0 {
			t.Errorf("%s: %d frame slots left behind", f.name, len(in.frames))
		}
		in.Fuel = DefaultFuel
		in.ResetStats()
		res, err := in.Invoke("dive", depth, 0)
		if err != nil {
			t.Fatalf("after %s: %v", f.name, err)
		}
		if res[0] != wantRes[0] || in.Stats() != wantStats {
			t.Errorf("after %s: dive(%d) = %d %+v, fresh instance gives %d %+v",
				f.name, depth, res[0], in.Stats(), wantRes[0], wantStats)
		}
	}
}

// BenchmarkWasmFib22 is the paper-scale fib argument on the Wasm
// runtime: 544 470 instructions over 57 313 calls.
func BenchmarkWasmFib22(b *testing.B) {
	in := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Fuel = DefaultFuel
		if _, err := in.Invoke("fib", 22); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(in.Stats().Instructions)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
