package wasmvm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// DefaultFuel is the per-invocation instruction budget.
const DefaultFuel = 500_000_000

// MaxCallDepth bounds recursion.
const MaxCallDepth = 4096

// ExecStats reports what an invocation consumed; the Wasm FaaS
// launcher converts these into meter counters.
type ExecStats struct {
	// Instructions is the number of bytecode instructions retired.
	Instructions uint64
	// MemBytes is the linear-memory traffic in bytes.
	MemBytes uint64
	// Calls is the number of function calls performed.
	Calls uint64
	// MaxStack is the high-water operand stack depth.
	MaxStack int
}

// Instance is an instantiated module with its own memory.
type Instance struct {
	module *Module
	// memory is the linear memory: nil until the first access that lies
	// inside the module's declared size, then all of it, zeroed (back).
	memory []byte
	// Fuel is the remaining instruction budget; Invoke fails with
	// ErrFuelExhausted when it hits zero.
	Fuel  uint64
	stats ExecStats
	// dispatch holds each function's dispatch table (fuse.go);
	// unfused the fused entries this invoke swapped for their plain
	// form, which Invoke puts back.
	dispatch [][]xinstr
	unfused  []unfused
	// frames holds the locals of every active call, innermost last:
	// call pushes a function's Params+Locals slots and pops them on
	// return, so a call costs no heap allocation. Empty between
	// invokes, whichever way the last one ended.
	frames []int64
}

// NewInstance instantiates m. Its memory reads as zeros and is backed
// on first access, as a guest's private pages are.
func NewInstance(m *Module) (*Instance, error) {
	if err := Validate(m); err != nil {
		return nil, err
	}
	return &Instance{
		module:   m,
		Fuel:     DefaultFuel,
		frames:   make([]int64, 0, 256),
		dispatch: buildDispatch(m),
	}, nil
}

// Stats returns cumulative execution statistics.
func (in *Instance) Stats() ExecStats { return in.stats }

// ResetStats zeroes the statistics (fuel is left untouched).
func (in *Instance) ResetStats() { in.stats = ExecStats{} }

// Invoke calls the exported function name with the given i64 args and
// returns its results.
func (in *Instance) Invoke(name string, args ...int64) ([]int64, error) {
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
	fuel := in.Fuel
	stack, err = in.call(idx, stack, 0)
	// Each retired instruction burns one unit of fuel (a trap refunds
	// what it did not retire), so call keeps only the one count.
	in.stats.Instructions += fuel - in.Fuel
	for _, u := range in.unfused {
		*u.x = u.was
	}
	in.unfused = in.unfused[:0]
	// A trap unwinds through call without popping; drop what it left.
	in.frames = in.frames[:0]
	if err != nil {
		return nil, err
	}
	results := make([]int64, f.Results)
	copy(results, stack[len(stack)-f.Results:])
	return results, nil
}

// call runs function fi with its parameters on top of stack; on return
// the parameters are replaced by the results.
func (in *Instance) call(fi int, stack []int64, depth int) ([]int64, error) {
	if depth >= MaxCallDepth {
		return nil, ErrCallDepth
	}
	f := &in.module.Funcs[fi]
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

	code := in.dispatch[fi]
	pc := 0
	for pc < len(code) {
		ins := &code[pc]
		if in.Fuel < uint64(ins.n) {
			if in.Fuel == 0 {
				return nil, ErrFuelExhausted
			}
			// Too little fuel for the fused run: make the entry plain
			// for the rest of the invoke and retry it, so the invoke
			// stops on the instruction it would have stopped on.
			in.unfused = append(in.unfused, unfused{ins, *ins})
			ins.op, ins.n, ins.h = ins.plain, 1, 0
			continue
		}
		in.Fuel -= uint64(ins.n)
		if h := len(stack) + int(ins.h); h > in.stats.MaxStack {
			in.stats.MaxStack = h
		}
		switch ins.op {
		case OpBlock, OpLoop, OpEnd:
			// Structure markers carry no runtime effect.
		case OpIf:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == 0 {
				pc = int(ins.a)
				continue
			}
		case OpBr:
			pc = int(ins.a)
			continue
		case OpBrIf:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v != 0 {
				pc = int(ins.a)
				continue
			}
		case OpReturn:
			in.frames = in.frames[:fp]
			return finishCall(f, base, stack)
		case OpCall:
			var err error
			stack, err = in.call(int(ins.a), stack, depth+1)
			if err != nil {
				return nil, err
			}
			// The callee may have grown the frame stack into a new
			// array; this frame's slots moved with it.
			locals = in.frames[fp:]

		case OpLocalGet:
			stack = append(stack, locals[ins.a])
		case OpLocalSet:
			locals[ins.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]

		case OpI64Load:
			addr := stack[len(stack)-1] + ins.a
			if !inBounds(addr, 8, len(in.memory)) && !in.back(addr, 8) {
				return nil, fmt.Errorf("%w: load at %d", ErrOOB, addr)
			}
			stack[len(stack)-1] = int64(binary.LittleEndian.Uint64(in.memory[addr:]))
			in.stats.MemBytes += 8
		case OpI64Store:
			v := stack[len(stack)-1]
			addr := stack[len(stack)-2] + ins.a
			stack = stack[:len(stack)-2]
			if !inBounds(addr, 8, len(in.memory)) && !in.back(addr, 8) {
				return nil, fmt.Errorf("%w: store at %d", ErrOOB, addr)
			}
			binary.LittleEndian.PutUint64(in.memory[addr:], uint64(v))
			in.stats.MemBytes += 8
		case OpI64Load8U:
			addr := stack[len(stack)-1] + ins.a
			if !inBounds(addr, 1, len(in.memory)) && !in.back(addr, 1) {
				return nil, fmt.Errorf("%w: load8 at %d", ErrOOB, addr)
			}
			stack[len(stack)-1] = int64(in.memory[addr])
			in.stats.MemBytes++
		case OpI64Store8:
			v := stack[len(stack)-1]
			addr := stack[len(stack)-2] + ins.a
			stack = stack[:len(stack)-2]
			if !inBounds(addr, 1, len(in.memory)) && !in.back(addr, 1) {
				return nil, fmt.Errorf("%w: store8 at %d", ErrOOB, addr)
			}
			in.memory[addr] = byte(v)
			in.stats.MemBytes++

		case OpI64Const:
			stack = append(stack, ins.a)
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
			stack = append(stack, ins.a)
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

		// Superinstructions (fuse.go): each arm retires ins.n
		// instructions of Code, reading their immediates from the
		// entries that follow.
		case opLoopGtSBrIf:
			x := (*[5]xinstr)(code[pc:])
			if locals[x[1].a] > locals[x[2].a] {
				pc = int(x[4].a)
				continue
			}
			pc += 5
			continue
		case opLoopGeSBrIf:
			x := (*[5]xinstr)(code[pc:])
			if locals[x[1].a] >= locals[x[2].a] {
				pc = int(x[4].a)
				continue
			}
			pc += 5
			continue
		case opLoopAddGtSBrIf:
			x := (*[7]xinstr)(code[pc:])
			if locals[x[1].a]+x[2].a > locals[x[4].a] {
				pc = int(x[6].a)
				continue
			}
			pc += 7
			continue
		case opLtSConstIf:
			x := (*[4]xinstr)(code[pc:])
			if locals[x[0].a] >= x[1].a {
				pc = int(x[3].a)
				continue
			}
			pc += 4
			continue
		case opSubConst:
			x := (*[3]xinstr)(code[pc:])
			stack = append(stack, locals[x[0].a]-x[1].a)
			pc += 3
			continue
		case opAddConstSetBr:
			x := (*[5]xinstr)(code[pc:])
			locals[x[3].a] = locals[x[0].a] + x[1].a
			pc = int(x[4].a)
			continue
		case opAddLocalsSetBr:
			x := (*[5]xinstr)(code[pc:])
			locals[x[3].a] = locals[x[0].a] + locals[x[1].a]
			pc = int(x[4].a)
			continue
		case opIndex:
			x := (*[7]xinstr)(code[pc:])
			stack = append(stack, (locals[x[0].a]*locals[x[1].a]+locals[x[3].a])*x[5].a)
			pc += 7
			continue
		case opMulConstStore:
			x := (*[5]xinstr)(code[pc:])
			addr := locals[x[0].a] + x[4].a
			if !inBounds(addr, 8, len(in.memory)) && !in.back(addr, 8) {
				return nil, fmt.Errorf("%w: store at %d", ErrOOB, addr)
			}
			binary.LittleEndian.PutUint64(in.memory[addr:], uint64(locals[x[1].a]*x[2].a))
			in.stats.MemBytes += 8
			pc += 5
			continue
		case opConstStore8:
			x := (*[3]xinstr)(code[pc:])
			addr := locals[x[0].a] + x[2].a
			if !inBounds(addr, 1, len(in.memory)) && !in.back(addr, 1) {
				return nil, fmt.Errorf("%w: store8 at %d", ErrOOB, addr)
			}
			in.memory[addr] = byte(x[1].a)
			in.stats.MemBytes++
			pc += 3
			continue
		case opLoadXorSet:
			x := (*[5]xinstr)(code[pc:])
			addr := locals[x[1].a] + x[2].a
			if !inBounds(addr, 8, len(in.memory)) && !in.back(addr, 8) {
				// The load is the third of five: refund xor and set.
				in.Fuel += 2
				return nil, fmt.Errorf("%w: load at %d", ErrOOB, addr)
			}
			locals[x[4].a] = locals[x[0].a] ^ int64(binary.LittleEndian.Uint64(in.memory[addr:]))
			in.stats.MemBytes += 8
			pc += 5
			continue
		case opLoad8Eqz:
			x := (*[3]xinstr)(code[pc:])
			addr := locals[x[0].a] + x[1].a
			if !inBounds(addr, 1, len(in.memory)) && !in.back(addr, 1) {
				// The load is the second of three: refund eqz.
				in.Fuel++
				return nil, fmt.Errorf("%w: load8 at %d", ErrOOB, addr)
			}
			stack = append(stack, b2i(in.memory[addr] == 0))
			in.stats.MemBytes++
			pc += 3
			continue
		case opF64MulAddSqrtSet:
			x := (*[7]xinstr)(code[pc:])
			// The conversion rounds the product, as the two-step
			// sequence does, instead of letting it fuse into an FMA.
			p := float64(i2f(locals[x[0].a]) * i2f(locals[x[1].a]))
			locals[x[6].a] = f2i(math.Sqrt(p + i2f(x[3].a)))
			pc += 7
			continue

		default:
			return nil, fmt.Errorf("wasmvm: unknown opcode %v at pc %d", f.Code[pc].Op, pc)
		}
		pc++
	}
	in.frames = in.frames[:fp]
	return finishCall(f, base, stack)
}

// inBounds reports whether the size bytes at addr lie inside a memory
// of n bytes. It is written so that no operand can overflow: addr+size
// would wrap for an addr within size of MaxInt64 and pass.
func inBounds(addr int64, size, n int) bool {
	return addr >= 0 && addr <= int64(n-size)
}

// back backs the declared memory, zeroed, on the first access whose
// size bytes at addr lie inside it, and reports whether it did. Every
// later miss is out of bounds: memory is backed whole, never grown.
func (in *Instance) back(addr int64, size int) bool {
	n := in.module.MemPages * PageSize
	if in.memory != nil || !inBounds(addr, size, n) {
		return false
	}
	in.memory = make([]byte, n)
	return true
}

// finishCall checks the result arity at function exit and moves the
// callee's results down to the caller's height, so early returns from
// inside loops cannot leak residual operands.
func finishCall(f *Func, base int, stack []int64) ([]int64, error) {
	if len(stack)-base < f.Results {
		return nil, fmt.Errorf("%w: %q returning %d values, %d available",
			ErrStackUnderflow, f.Name, f.Results, len(stack)-base)
	}
	copy(stack[base:], stack[len(stack)-f.Results:])
	return stack[:base+f.Results], nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func i2f(v int64) float64 { return math.Float64frombits(uint64(v)) }
func f2i(v float64) int64 { return int64(math.Float64bits(v)) }
