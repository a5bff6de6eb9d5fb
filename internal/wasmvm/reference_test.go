package wasmvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// outcome is everything an invoke leaves behind that a caller can see.
type outcome struct {
	res    []int64
	err    string
	stats  ExecStats
	fuel   uint64
	memory []byte
}

func (o outcome) String() string {
	return fmt.Sprintf("res=%v err=%q stats=%+v fuel=%d", o.res, o.err, o.stats, o.fuel)
}

// sameMemory reports whether two linear memories hold the same bytes
// once each is zero-extended to the longer: memory not yet backed
// reads as zeros.
func sameMemory(a, b []byte) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	return bytes.Equal(a[:len(b)], b) && len(bytes.TrimLeft(a[len(b):], "\x00")) == 0
}

// invokeWith runs export on in from a fresh state (memory not yet
// backed, zero stats) with fuel, over the current interpreter or, with
// ref, over refCall.
func invokeWith(in *Instance, ref bool, fuel uint64, export string, args ...int64) outcome {
	in.memory = nil
	in.ResetStats()
	in.Fuel = fuel
	var res []int64
	var err error
	if ref {
		res, err = in.refInvoke(export, args...)
	} else {
		res, err = in.Invoke(export, args...)
	}
	o := outcome{res: res, stats: in.Stats(), fuel: in.Fuel, memory: in.memory}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// diffEveryBudget runs export(args) on m under both interpreters with
// every fuel budget from 0 to the instructions the full run retires,
// and once with the default budget, and fails on the first outcome that
// differs. It returns the full run's instruction count.
func diffEveryBudget(t *testing.T, m *Module, export string, args ...int64) uint64 {
	t.Helper()
	ref, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	full := invokeWith(ref, true, DefaultFuel, export, args...).stats.Instructions
	for fuel := uint64(0); fuel <= full+1; fuel++ {
		if fuel == full+1 {
			fuel = DefaultFuel
		}
		want := invokeWith(ref, true, fuel, export, args...)
		have := invokeWith(got, false, fuel, export, args...)
		if have.String() != want.String() || !sameMemory(have.memory, want.memory) {
			t.Fatalf("%s%v with fuel %d:\n got %v\nwant %v\nmemory equal: %v",
				export, args, fuel, have, want, sameMemory(have.memory, want.memory))
		}
	}
	return full
}

// fusedOps lists the fused ops that appear in in's dispatch tables.
func fusedOps(in *Instance) map[Op]bool {
	seen := map[Op]bool{}
	for _, tab := range in.dispatch {
		for _, x := range tab {
			if x.n > 1 {
				seen[x.op] = true
			}
		}
	}
	return seen
}

// TestMatchesReferenceOnEveryBudget: the eight bench functions at small
// arguments end the same way under the fused and the one-at-a-time
// interpreter, whichever instruction the fuel runs out on: same result,
// error text, ExecStats, remaining fuel and linear memory.
func TestMatchesReferenceOnEveryBudget(t *testing.T) {
	m, err := BuildBenchModule()
	if err != nil {
		t.Fatal(err)
	}
	// One page holds every argument below and keeps a fresh state cheap.
	m.MemPages = 1
	for _, c := range []struct {
		export string
		args   []int64
	}{
		{"fib", []int64{9}},
		{"fib_iter", []int64{30}},
		{"sieve", []int64{60}},
		{"matmul", []int64{3}},
		{"cpustress", []int64{80}},
		{"memstress", []int64{512}},
		{"gcd", []int64{832040, 514229}},
		{"powmod", []int64{7, 1_000_003, 998_244_353}},
	} {
		full := diffEveryBudget(t, m, c.export, c.args...)
		t.Logf("%s%v: %d budgets agree", c.export, c.args, full+2)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	seen := fusedOps(in)
	for _, p := range patterns {
		if !seen[p.op] {
			t.Errorf("no bench function contains the pattern of fused op %d", p.op)
		}
	}
}

// memProbe wraps a fused pattern that touches memory in a function of
// one address parameter (and one spare local), with a value parked
// below it so that the operand stack is not empty on entry.
func memProbe(name string, body func(fb *FuncBuilder)) *FuncBuilder {
	fb := NewFuncBuilder(name, 1, 1, 1)
	fb.I64Const(100)
	body(fb)
	fb.LocalGet(1).I64Add()
	return fb
}

// TestFusedTrapsMatchReference traps inside every fused pattern that
// touches memory, at its memory access, with each budget that runs out
// before, on and after it: the trap must retire, charge and report what
// the one-at-a-time interpreter does.
func TestFusedTrapsMatchReference(t *testing.T) {
	mb := NewModuleBuilder().WithMemory(1)
	mb.AddFunc(memProbe("mul_store", func(fb *FuncBuilder) {
		fb.LocalGet(0).LocalGet(0).I64Const(3).I64Mul().I64Store(0)
	}))
	mb.AddFunc(memProbe("store8", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Const(5).I64Store8(0)
	}))
	mb.AddFunc(memProbe("load_xor", func(fb *FuncBuilder) {
		fb.LocalGet(1).LocalGet(0).I64Load(0).I64Xor().LocalSet(1)
	}))
	mb.AddFunc(memProbe("load8_if", func(fb *FuncBuilder) {
		fb.LocalGet(0).I64Load8U(0).I64Eqz().If().
			I64Const(9).LocalSet(1).
			End()
	}))
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	for op := range fusedOps(in) {
		switch op {
		case opMulConstStore, opConstStore8, opLoadXorSet, opLoad8Eqz:
		default:
			t.Errorf("probe module fuses unexpected op %d", op)
		}
	}
	if n := len(fusedOps(in)); n != 4 {
		t.Fatalf("probe module fuses %d patterns, want the 4 that touch memory", n)
	}
	for _, export := range []string{"mul_store", "store8", "load_xor", "load8_if"} {
		// In bounds, straddling the end, just past it, below zero.
		for _, addr := range []int64{8, PageSize - 4, PageSize, -1} {
			diffEveryBudget(t, m, export, addr)
		}
	}
}

// TestBranchToFusedRunMatchesReference: a br_if leaves a block onto
// the first instruction of a fused run (local.get; i64.const; i64.add;
// local.set; br), which the untaken path reaches by falling through.
// Both paths end as they do one instruction at a time. A branch into
// the middle of a run is not valid bytecode (TestValidateRejectsBadBranches).
func TestBranchToFusedRunMatchesReference(t *testing.T) {
	m := &Module{
		Funcs: []Func{{Name: "run", Params: 1, Results: 1, Locals: 1, Code: []Instr{
			{OpBlock, 13},
			{OpBlock, 7},
			{OpLocalGet, 0},
			{OpBrIf, 7}, // x != 0: skip the store of 100, onto the run
			{OpI64Const, 100},
			{OpLocalSet, 1},
			{OpEnd, 0},
			{OpLocalGet, 0},
			{OpI64Const, 5},
			{OpI64Add, 0},
			{OpLocalSet, 1},
			{OpBr, 13},
			{OpEnd, 0},
			{OpLocalGet, 1},
		}}},
		exports: map[string]int{"run": 0},
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	if x := in.dispatch[0][7]; x.op != opAddConstSetBr {
		t.Fatalf("pc 7 dispatches %v, want the fused add-const-set-br", x.op)
	}
	for _, arg := range []int64{0, 3} {
		diffEveryBudget(t, m, "run", arg)
	}
	if got, want := invokeWith(in, false, DefaultFuel, "run", 3), int64(8); got.res[0] != want {
		t.Errorf("run(3) = %v, want %d", got.res, want)
	}
}

// TestFusedOpValuesAreNotBytecode: a Code op that carries a fused op's
// value, or any other value outside the instruction set, is refused by
// NewInstance, so bytecode cannot name a superinstruction that would
// read immediates past the end of Code. Every value past the last
// plain op is tried.
func TestFusedOpValuesAreNotBytecode(t *testing.T) {
	if opLoopGtSBrIf != OpI64TruncF64S+1 {
		t.Fatalf("first fused op is %d, want %d, right after the plain ones", opLoopGtSBrIf, OpI64TruncF64S+1)
	}
	ops := []Op{0}
	for op := OpI64TruncF64S + 1; op != 0; op++ {
		ops = append(ops, op)
	}
	for _, op := range ops {
		m := &Module{
			Funcs:   []Func{{Name: "bad", Code: []Instr{{op, 0}}}},
			exports: map[string]int{"bad": 0},
		}
		if _, err := NewInstance(m); !errors.Is(err, ErrValidation) {
			t.Errorf("NewInstance(code of %v) = %v, want ErrValidation", op, err)
		}
	}
}

// TestPatternsAreStraightLine holds every pattern to the rules the
// fused arms rely on: no branch label lies inside a run, only the last
// instruction may transfer control,
// at most one instruction touches memory or branches, the instruction
// that can trap is the one the arm refunds from, and no pattern is a
// prefix of another, so at most one matches at any pc.
func TestPatternsAreStraightLine(t *testing.T) {
	for i, p := range patterns {
		if len(p.seq) < 2 || len(p.seq) > 15 {
			t.Errorf("pattern %d has %d instructions", i, len(p.seq))
		}
		effects := 0
		for k, op := range p.seq {
			switch op {
			case OpBr, OpBrIf, OpIf:
				effects++
				if k != len(p.seq)-1 {
					t.Errorf("pattern %d branches at %d of %d", i, k, len(p.seq))
				}
			case OpI64Load, OpI64Load8U, OpI64Store, OpI64Store8:
				effects++
				// A trap here retires seq[:k+1]; the arm raised
				// MaxStack for all of seq, so the peak must come no
				// later.
				if peak(p.seq[:k+1]) != peak(p.seq) {
					t.Errorf("pattern %d peaks after its memory access at %d", i, k)
				}
			case OpLoop:
				// Its own pc is a branch label: a run may start there only.
				if k != 0 {
					t.Errorf("pattern %d has a loop at %d", i, k)
				}
			case OpEnd, OpReturn, OpCall, OpI64RemS:
				// The pc past an end is a branch label.
				t.Errorf("pattern %d contains %v", i, op)
			}
		}
		if effects > 1 {
			t.Errorf("pattern %d has %d memory accesses or branches", i, effects)
		}
		for j, q := range patterns {
			if i != j && len(q.seq) <= len(p.seq) && slices.Equal(p.seq[:len(q.seq)], q.seq) {
				t.Errorf("pattern %d starts with pattern %d", i, j)
			}
		}
	}
}

// TestBoundsChecksCannotOverflow: guest addresses near MaxInt64 used
// to wrap the bounds arithmetic (addr+8), pass the check and panic the
// host in the slice expression. Every access path traps with ErrOOB
// instead.
func TestBoundsChecksCannotOverflow(t *testing.T) {
	mb := NewModuleBuilder().WithMemory(1)
	fb := NewFuncBuilder("load", 1, 1, 0)
	fb.LocalGet(0).I64Load(0)
	mb.AddFunc(fb)
	fb = NewFuncBuilder("store", 1, 0, 0)
	fb.LocalGet(0).I64Const(1).I64Store(0)
	mb.AddFunc(fb)
	mb.AddFunc(memProbe("mul_store", func(fb *FuncBuilder) {
		fb.LocalGet(0).LocalGet(0).I64Const(3).I64Mul().I64Store(0)
	}))
	mb.AddFunc(memProbe("load_xor", func(fb *FuncBuilder) {
		fb.LocalGet(1).LocalGet(0).I64Load(0).I64Xor().LocalSet(1)
	}))
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, export := range []string{"load", "store", "mul_store", "load_xor"} {
		for _, addr := range []int64{math.MaxInt64 - 7, math.MaxInt64 - 3, math.MaxInt64} {
			if _, err := in.Invoke(export, addr); !errors.Is(err, ErrOOB) {
				t.Errorf("%s(%d): want ErrOOB, got %v", export, addr, err)
			}
		}
	}
}

// refInvoke is Invoke over refCall.
func (in *Instance) refInvoke(name string, args ...int64) ([]int64, error) {
	idx, err := in.module.ExportIndex(name)
	if err != nil {
		return nil, err
	}
	f := &in.module.Funcs[idx]
	if len(args) != f.Params {
		return nil, fmt.Errorf("%w: %q takes %d args, got %d", ErrBadArity, name, f.Params, len(args))
	}
	stack := make([]int64, 0, 64)
	stack = append(stack, args...)
	stack, err = in.refCall(idx, stack, 0)
	in.frames = in.frames[:0]
	if err != nil {
		return nil, err
	}
	results := make([]int64, f.Results)
	copy(results, stack[len(stack)-f.Results:])
	return results, nil
}

// refMemory is in's linear memory, backed whole and zeroed if it is not
// yet.
func (in *Instance) refMemory() []byte {
	if in.memory == nil {
		in.memory = make([]byte, in.module.MemPages*PageSize)
	}
	return in.memory
}

// refCall is call as it was before superinstructions, kept verbatim but
// for its name, the arms of the ops since deleted, and memory bounds
// checked against the declared size, backed whole on the first access
// that passes: one instruction of Code per dispatch, each with its own
// fuel check and stats writes. It runs function fi with its parameters
// on top of stack; on return the parameters are replaced by the
// results.
func (in *Instance) refCall(fi int, stack []int64, depth int) ([]int64, error) {
	if depth >= MaxCallDepth {
		return nil, ErrCallDepth
	}
	f := &in.module.Funcs[fi]
	size := int64(in.module.MemPages * PageSize)
	in.stats.Calls++

	// Locals: parameters moved off the operand stack + zeroed extras,
	// in a new frame on the instance's frame stack.
	base := len(stack) - f.Params
	fp := len(in.frames)
	n := f.Params + f.Locals
	in.frames = slices.Grow(in.frames, n)[:fp+n]
	locals := in.frames[fp:]
	copy(locals, stack[base:])
	clear(locals[f.Params:])
	stack = stack[:base]

	code := f.Code
	pc := 0
	for pc < len(code) {
		if in.Fuel == 0 {
			return nil, ErrFuelExhausted
		}
		in.Fuel--
		in.stats.Instructions++
		if len(stack) > in.stats.MaxStack {
			in.stats.MaxStack = len(stack)
		}

		ins := code[pc]
		switch ins.Op {
		case OpBlock, OpLoop, OpEnd:
			// Structure markers carry no runtime effect.
		case OpIf:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == 0 {
				pc = int(ins.A)
				continue
			}
		case OpBr:
			pc = int(ins.A)
			continue
		case OpBrIf:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v != 0 {
				pc = int(ins.A)
				continue
			}
		case OpReturn:
			in.frames = in.frames[:fp]
			return finishCall(f, base, stack)
		case OpCall:
			var err error
			stack, err = in.refCall(int(ins.A), stack, depth+1)
			if err != nil {
				return nil, err
			}
			// The callee may have grown the frame stack into a new
			// array; this frame's slots moved with it.
			locals = in.frames[fp:]

		case OpLocalGet:
			stack = append(stack, locals[ins.A])
		case OpLocalSet:
			locals[ins.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]

		case OpI64Load:
			addr := stack[len(stack)-1] + ins.A
			if addr < 0 || addr+8 > size {
				return nil, fmt.Errorf("%w: load at %d", ErrOOB, addr)
			}
			stack[len(stack)-1] = int64(binary.LittleEndian.Uint64(in.refMemory()[addr:]))
			in.stats.MemBytes += 8
		case OpI64Store:
			v := stack[len(stack)-1]
			addr := stack[len(stack)-2] + ins.A
			stack = stack[:len(stack)-2]
			if addr < 0 || addr+8 > size {
				return nil, fmt.Errorf("%w: store at %d", ErrOOB, addr)
			}
			binary.LittleEndian.PutUint64(in.refMemory()[addr:], uint64(v))
			in.stats.MemBytes += 8
		case OpI64Load8U:
			addr := stack[len(stack)-1] + ins.A
			if addr < 0 || addr >= size {
				return nil, fmt.Errorf("%w: load8 at %d", ErrOOB, addr)
			}
			stack[len(stack)-1] = int64(in.refMemory()[addr])
			in.stats.MemBytes++
		case OpI64Store8:
			v := stack[len(stack)-1]
			addr := stack[len(stack)-2] + ins.A
			stack = stack[:len(stack)-2]
			if addr < 0 || addr >= size {
				return nil, fmt.Errorf("%w: store8 at %d", ErrOOB, addr)
			}
			in.refMemory()[addr] = byte(v)
			in.stats.MemBytes++

		case OpI64Const:
			stack = append(stack, ins.A)
		case OpI64Add:
			stack[len(stack)-2] += stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpI64Sub:
			stack[len(stack)-2] -= stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpI64Mul:
			stack[len(stack)-2] *= stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpI64RemS:
			b := stack[len(stack)-1]
			if b == 0 {
				return nil, ErrDivByZero
			}
			stack[len(stack)-2] %= b
			stack = stack[:len(stack)-1]
		case OpI64And:
			stack[len(stack)-2] &= stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpI64Xor:
			stack[len(stack)-2] ^= stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpI64ShrS:
			stack[len(stack)-2] >>= uint64(stack[len(stack)-1]) & 63
			stack = stack[:len(stack)-1]
		case OpI64Eqz:
			stack[len(stack)-1] = b2i(stack[len(stack)-1] == 0)
		case OpI64LtS:
			stack[len(stack)-2] = b2i(stack[len(stack)-2] < stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		case OpI64GtS:
			stack[len(stack)-2] = b2i(stack[len(stack)-2] > stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		case OpI64LeS:
			stack[len(stack)-2] = b2i(stack[len(stack)-2] <= stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		case OpI64GeS:
			stack[len(stack)-2] = b2i(stack[len(stack)-2] >= stack[len(stack)-1])
			stack = stack[:len(stack)-1]

		case OpF64Const:
			stack = append(stack, ins.A)
		case OpF64Add:
			stack[len(stack)-2] = f2i(i2f(stack[len(stack)-2]) + i2f(stack[len(stack)-1]))
			stack = stack[:len(stack)-1]
		case OpF64Mul:
			stack[len(stack)-2] = f2i(i2f(stack[len(stack)-2]) * i2f(stack[len(stack)-1]))
			stack = stack[:len(stack)-1]
		case OpF64Sqrt:
			stack[len(stack)-1] = f2i(math.Sqrt(i2f(stack[len(stack)-1])))
		case OpI64TruncF64S:
			stack[len(stack)-1] = int64(i2f(stack[len(stack)-1]))

		default:
			return nil, fmt.Errorf("wasmvm: unknown opcode %v at pc %d", ins.Op, pc)
		}
		pc++
	}
	in.frames = in.frames[:fp]
	return finishCall(f, base, stack)
}
