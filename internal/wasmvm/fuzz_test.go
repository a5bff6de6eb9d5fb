package wasmvm

import (
	"errors"
	"math"
	"testing"
)

// fuzzMaxFuel is the largest fuel budget FuzzWasmModule runs an export
// under; every budget from 0 up to it is tried. fuzzMaxCode bounds the
// instructions decoded from one input.
const (
	fuzzMaxFuel = 300
	fuzzMaxCode = 400
)

// FuzzWasmModule builds a module from arbitrary bytes over the VM's op
// set (fuzzModule), instantiates it, and runs every function under the
// fused and the one-at-a-time interpreter (refCall) at each fuel budget
// from 0 to fuzzMaxFuel. Neither may panic the host, and both must end
// the same way: result, error text, ExecStats, remaining fuel and every
// byte of linear memory. A module NewInstance refuses must be refused
// with ErrValidation.
func FuzzWasmModule(f *testing.F) {
	for _, seed := range [][]byte{
		// A loop counting local 1 up to param 0, with a store per step.
		{2, 0, 0x61,
			byte(OpBlock), 0, byte(OpLoop), 0,
			byte(OpLocalGet), 1, byte(OpLocalGet), 0, byte(OpI64GeS), 0, byte(OpBrIf), 1,
			byte(OpLocalGet), 1, byte(OpI64Const), 7, byte(OpI64Store8), 3,
			byte(OpLocalGet), 1, byte(OpI64Const), 1, byte(OpI64Add), 0, byte(OpLocalSet), 1,
			byte(OpBr), 0, byte(OpEnd), 0, byte(OpEnd), 0, byte(OpLocalGet), 1},
		// Two functions, the first calling the second, with a trap-prone
		// remainder and an f64 kernel.
		{0, 1, 0x25, 0x11,
			byte(OpLocalGet), 0, byte(OpCall), 1, byte(OpI64RemS), 0, byte(OpReturn), 0,
			byte(OpF64Const), 9, byte(OpLocalGet), 0, byte(OpF64Mul), 0, byte(OpF64Sqrt), 0,
			byte(OpI64TruncF64S), 0, byte(OpIf), 0, byte(OpI64Const), 0xfe, byte(OpLocalSet), 0, byte(OpEnd), 0},
		// Raw code: fused op values, unknown values and unresolved targets.
		{1, 0, 0x12, 0, byte(OpI64TruncF64S) + 1, 0, 200, 1, byte(OpBr), 9, byte(OpEnd), 0},
		// The first access is an i64.store at 64·64·16 − 8, the last
		// address of the page an 8-byte access may use, which backs the
		// memory; then a load of it.
		{2, 0, 0,
			byte(OpI64Const), 64, byte(OpI64Const), 64, byte(OpI64Mul), 0, byte(OpI64Const), 16, byte(OpI64Mul), 0,
			byte(OpI64Const), 0xf8, byte(OpI64Add), 0, byte(OpLocalSet), 0,
			byte(OpLocalGet), 0, byte(OpI64Const), 0x5a, byte(OpI64Store), 0,
			byte(OpLocalGet), 0, byte(OpI64Load), 0},
		// The same first access one address further: it straddles the
		// end of the page and traps, backing nothing.
		{2, 0, 0,
			byte(OpI64Const), 64, byte(OpI64Const), 64, byte(OpI64Mul), 0, byte(OpI64Const), 16, byte(OpI64Mul), 0,
			byte(OpI64Const), 0xf9, byte(OpI64Add), 0, byte(OpLocalSet), 0,
			byte(OpLocalGet), 0, byte(OpI64Const), 0x5a, byte(OpI64Store), 0,
			byte(OpLocalGet), 0, byte(OpI64Load), 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := fuzzModule(data)
		if err != nil {
			t.Fatalf("a module built to be well formed is refused: %v", err)
		}
		ref, err := NewInstance(m)
		if err != nil {
			if !errors.Is(err, ErrValidation) {
				t.Fatalf("NewInstance: %v, want ErrValidation", err)
			}
			return
		}
		got, err := NewInstance(m)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range m.Funcs {
			fn := &m.Funcs[fi]
			args := make([]int64, fn.Params)
			for i := range args {
				args[i] = int64(int8(byteAt(data, 2+i)))
			}
			for fuel := uint64(0); fuel <= fuzzMaxFuel; fuel++ {
				want := invokeWith(ref, true, fuel, fn.Name, args...)
				have := invokeWith(got, false, fuel, fn.Name, args...)
				if have.String() != want.String() || !sameMemory(have.memory, want.memory) {
					t.Fatalf("%s%v with fuel %d:\n got %v\nwant %v\nmemory equal: %v\n%s",
						fn.Name, args, fuel, have, want, sameMemory(have.memory, want.memory),
						Disassemble(*fn))
				}
			}
		}
	})
}

// byteAt is data[i], or 0 past its end.
func byteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// fuzzModule decodes data into a module of one to three functions.
// Byte 0 picks raw code (bit 0) and one page of memory (bit 1); byte 1
// the function count; then one byte per function packs its params
// (0–2), results (0–2) and extra locals (1–3). The rest is (op,
// immediate) pairs, split evenly between the functions.
//
// Raw code is the pairs as they stand: any op value, immediates as
// signed bytes, so branch targets, indexes and op values are mostly
// wrong and the module is mostly refused; it is returned unvalidated.
// Otherwise the pairs drive FuncBuilder, which resolves branch targets,
// through fuzzFunc, which keeps the operand height right, so the module
// is well formed and an error from Build is a validator that refuses
// good code.
func fuzzModule(data []byte) (*Module, error) {
	mode, nf := byteAt(data, 0), int(byteAt(data, 1)%3)+1
	sigs := make([]Func, nf)
	for i := range sigs {
		b := byteAt(data, 2+i)
		sigs[i] = Func{Name: "f" + string(rune('0'+i)), Params: int(b % 3), Results: int(b / 3 % 3), Locals: int(b/9%3) + 1}
	}
	pairs := data[min(len(data), 2+nf):]
	pairs = pairs[:min(len(pairs), 2*fuzzMaxCode)&^1]
	per := len(pairs) / 2 / nf * 2
	pages := 0
	if mode&2 != 0 {
		pages = 1
	}
	if mode&1 != 0 {
		m := &Module{MemPages: pages, exports: map[string]int{}}
		for i, sig := range sigs {
			for _, p := range chunk(pairs, i, per) {
				sig.Code = append(sig.Code, Instr{Op(p[0]), int64(int8(p[1]))})
			}
			m.Funcs = append(m.Funcs, sig)
			m.exports[sig.Name] = i
		}
		return m, nil
	}
	// Every byte names a plain op; a plain op's own value names it.
	const nOps = int(OpI64TruncF64S)
	mb := NewModuleBuilder().WithMemory(pages)
	for i, sig := range sigs {
		g := fuzzFunc{fb: NewFuncBuilder(sig.Name, sig.Params, sig.Results, sig.Locals), sigs: sigs,
			locals: sig.Params + sig.Locals, mem: pages > 0}
		for _, p := range chunk(pairs, i, per) {
			g.emit(Op((int(p[0])+nOps-1)%nOps+1), int(int8(p[1])))
		}
		g.finish()
		mb.AddFunc(g.fb)
	}
	return mb.Build()
}

// chunk returns function i's share of pairs as two-byte slices.
func chunk(pairs []byte, i, per int) [][]byte {
	var out [][]byte
	for k := i * per; k+1 < (i+1)*per && k+1 < len(pairs); k += 2 {
		out = append(out, pairs[k:k+2])
	}
	return out
}

// fuzzFunc emits one function through a FuncBuilder while tracking the
// operand height h the validator will see, so that each op gets the
// operands it pops and each end and branch finds its frame's entry
// height: it pushes constants for missing operands and pops surplus
// ones into local 0.
type fuzzFunc struct {
	fb     *FuncBuilder
	sigs   []Func
	locals int
	mem    bool
	// h is the operand height; frames the entry height of each open
	// frame. After a br or a return the code up to the end of the
	// frame is dead, and only an end is emitted.
	h      int
	frames []int
	dead   bool
}

// need pushes constants until at least n operands are on the stack.
func (g *fuzzFunc) need(n int) {
	for g.h < n {
		g.fb.I64Const(1)
		g.h++
	}
}

// settle brings the operand height to exactly n.
func (g *fuzzFunc) settle(n int) {
	for g.h > n {
		g.fb.LocalSet(0)
		g.h--
	}
	for g.h < n {
		g.fb.I64Const(0)
		g.h++
	}
}

// emit appends op with immediate imm, adapted to the current state.
func (g *fuzzFunc) emit(op Op, imm int) {
	fb := g.fb
	u := imm & 0x7f
	if g.dead && op != OpEnd {
		return
	}
	switch op {
	case OpBlock:
		fb.Block()
		g.frames = append(g.frames, g.h)
	case OpLoop:
		fb.Loop()
		g.frames = append(g.frames, g.h)
	case OpIf:
		g.need(1)
		g.h--
		fb.If()
		g.frames = append(g.frames, g.h)
	case OpEnd:
		if len(g.frames) == 0 {
			return
		}
		top := g.frames[len(g.frames)-1]
		if !g.dead {
			g.settle(top)
		}
		fb.End()
		g.frames, g.h, g.dead = g.frames[:len(g.frames)-1], top, false
	case OpBr, OpBrIf:
		if len(g.frames) == 0 {
			return
		}
		depth := u % len(g.frames)
		entry := g.frames[len(g.frames)-1-depth]
		if op == OpBr {
			g.settle(entry)
			fb.Br(depth)
			g.dead = true
			return
		}
		// The value on top above the target's entry is the condition.
		g.settle(entry + 1)
		fb.BrIf(depth)
		g.h--
	case OpReturn:
		g.need(fb.results)
		fb.Return()
		g.dead = true
	case OpCall:
		callee := g.sigs[u%len(g.sigs)]
		g.need(callee.Params)
		fb.Call(u % len(g.sigs))
		g.h += callee.Results - callee.Params
	case OpLocalGet, OpLocalSet:
		g.plain(op, int64(u%g.locals))
	case OpI64Load, OpI64Load8U, OpI64Store, OpI64Store8:
		if g.mem {
			g.plain(op, int64(u))
		}
	case OpI64Const:
		g.plain(op, int64(imm))
	case OpF64Const:
		g.plain(op, int64(math.Float64bits(float64(imm)/4)))
	default:
		g.plain(op, 0)
	}
}

// plain emits an op that is no frame or branch, with its operands.
func (g *fuzzFunc) plain(op Op, a int64) {
	pops, pushes := stackEffect(op)
	g.need(pops)
	g.fb.emit(op, a)
	g.h += pushes - pops
}

// finish closes the open frames and leaves the function's results.
func (g *fuzzFunc) finish() {
	for len(g.frames) > 0 {
		g.emit(OpEnd, 0)
	}
	if !g.dead {
		g.settle(g.fb.results)
	}
}
