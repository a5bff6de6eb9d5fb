package wasmvm

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// access names a probe function and the width of its memory access.
type access struct {
	export string
	width  int64
}

// firstAccessProbes is one function per load/store site of call, each
// of one address parameter: the four plain ops, written so that no
// pattern fuses them, and the four fused ops that touch memory.
func firstAccessProbes(t *testing.T) (*Module, []access) {
	t.Helper()
	mb := NewModuleBuilder().WithMemory(1)
	mb.AddFunc(memProbe("load", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Load(0).LocalSet(1)
	}))
	mb.AddFunc(memProbe("store", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Const(-1).I64Store(0)
	}))
	mb.AddFunc(memProbe("load8", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Load8U(0).LocalSet(1)
	}))
	mb.AddFunc(memProbe("store8", func(fb *FuncBuilder) {
		fb.LocalGet(0).LocalGet(0).I64Store8(0)
	}))
	mb.AddFunc(memProbe("mul_store", func(fb *FuncBuilder) {
		fb.LocalGet(0).LocalGet(0).I64Const(3).I64Mul().I64Store(0)
	}))
	mb.AddFunc(memProbe("const_store8", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Const(5).I64Store8(0)
	}))
	mb.AddFunc(memProbe("load_xor", func(fb *FuncBuilder) {
		fb.LocalGet(1).LocalGet(0).I64Load(0).I64Xor().LocalSet(1)
	}))
	mb.AddFunc(memProbe("load8_eqz", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Load8U(0).I64Eqz().LocalSet(1)
	}))
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m, []access{
		{"load", 8}, {"store", 8}, {"load8", 1}, {"store8", 1},
		{"mul_store", 8}, {"const_store8", 1}, {"load_xor", 8}, {"load8_eqz", 1},
	}
}

// TestMemoryBackedOnFirstAccess: a fresh instance holds no memory, and
// the first in-bounds access at the last address its width allows backs
// the whole declared size, zeroed but for what a store wrote, at every
// load/store site, plain and fused.
func TestMemoryBackedOnFirstAccess(t *testing.T) {
	m, probes := firstAccessProbes(t)
	limit := int64(m.MemPages * PageSize)
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	if fused := len(fusedOps(in)); fused != 4 {
		t.Fatalf("probe module fuses %d patterns, want the 4 that touch memory", fused)
	}
	for _, p := range probes {
		in, err := NewInstance(m)
		if err != nil {
			t.Fatal(err)
		}
		if in.memory != nil {
			t.Fatalf("a fresh instance holds %d bytes of memory, want none", len(in.memory))
		}
		addr := limit - p.width
		if _, err := in.Invoke(p.export, addr); err != nil {
			t.Fatalf("%s(%d): %v", p.export, addr, err)
		}
		if int64(len(in.memory)) != limit {
			t.Fatalf("%s(%d) backed %d bytes, want the declared %d", p.export, addr, len(in.memory), limit)
		}
		if n := len(bytes.TrimLeft(in.memory[:addr], "\x00")); n != 0 {
			t.Errorf("%s(%d): %d bytes below the access are not zero", p.export, addr, n)
		}
	}
}

// TestFirstAccessOutOfBoundsTraps: a first access that does not lie
// inside the declared memory (at its end, at MaxInt64, below zero, and
// for an 8-byte access straddling the end) traps with ErrOOB, backs
// nothing, and retires and reports what it did when memory was backed
// at instantiation: the refunds of the fused ops are unchanged.
func TestFirstAccessOutOfBoundsTraps(t *testing.T) {
	m, probes := firstAccessProbes(t)
	limit := int64(m.MemPages * PageSize)
	// Instructions retired and MaxStack per probe at each of these
	// addresses, as an instance backed at instantiation reported them.
	want := map[string][2]uint64{
		"load": {3, 2}, "store": {4, 3}, "load8": {3, 2}, "store8": {4, 3},
		"mul_store": {6, 4}, "const_store8": {4, 3}, "load_xor": {4, 3}, "load8_eqz": {3, 2},
	}
	for _, p := range probes {
		over := []int64{limit, math.MaxInt64, -1}
		if p.width > 1 {
			over = append(over, limit-p.width+1) // straddling the end
		}
		for _, addr := range over {
			in, err := NewInstance(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = in.Invoke(p.export, addr)
			if !errors.Is(err, ErrOOB) {
				t.Errorf("%s(%d): want ErrOOB, got %v", p.export, addr, err)
			}
			if in.memory != nil {
				t.Errorf("%s(%d) backed %d bytes of memory, want none", p.export, addr, len(in.memory))
			}
			s := in.Stats()
			if got := [2]uint64{DefaultFuel - in.Fuel, uint64(s.MaxStack)}; got != want[p.export] || s.Instructions != got[0] {
				t.Errorf("%s(%d): retired %d (Instructions %d), MaxStack %d; want %v",
					p.export, addr, got[0], s.Instructions, got[1], want[p.export])
			}
		}
	}
}
