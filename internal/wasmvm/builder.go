package wasmvm

import (
	"fmt"
	"math"
)

// ModuleBuilder assembles a Module from function builders.
type ModuleBuilder struct {
	funcs   []Func
	exports map[string]int
	pages   int
	err     error
}

// NewModuleBuilder returns an empty module builder.
func NewModuleBuilder() *ModuleBuilder {
	return &ModuleBuilder{exports: make(map[string]int, 4)}
}

// WithMemory declares a linear memory of pages pages.
func (mb *ModuleBuilder) WithMemory(pages int) *ModuleBuilder {
	mb.pages = pages
	return mb
}

// AddFunc finalizes fb, appends it, and returns its function index.
// The function is exported under its name.
func (mb *ModuleBuilder) AddFunc(fb *FuncBuilder) int {
	f, err := fb.build()
	if err != nil && mb.err == nil {
		mb.err = err
	}
	mb.funcs = append(mb.funcs, f)
	idx := len(mb.funcs) - 1
	if f.Name != "" {
		mb.exports[f.Name] = idx
	}
	return idx
}

// Build validates and returns the module.
func (mb *ModuleBuilder) Build() (*Module, error) {
	if mb.err != nil {
		return nil, mb.err
	}
	m := &Module{
		Funcs:    mb.funcs,
		MemPages: mb.pages,
		exports:  mb.exports,
	}
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ctrlFrame is an open block, loop or if while building.
type ctrlFrame struct {
	// loop marks a loop: branches to it target its start, not the pc
	// past its end.
	loop bool
	// start is the pc of the opening instruction.
	start int
	// patches lists pcs whose A must point past the matching end.
	patches []int
}

// FuncBuilder assembles one function with structured control flow.
// Branch targets are resolved when End closes each frame.
type FuncBuilder struct {
	name    string
	params  int
	results int
	locals  int
	code    []Instr
	ctrl    []ctrlFrame
	err     error
}

// NewFuncBuilder starts a function with the given signature. locals is
// the number of extra (non-parameter) locals.
func NewFuncBuilder(name string, params, results, locals int) *FuncBuilder {
	return &FuncBuilder{name: name, params: params, results: results, locals: locals}
}

func (fb *FuncBuilder) emit(op Op, a int64) *FuncBuilder {
	fb.code = append(fb.code, Instr{Op: op, A: a})
	return fb
}

func (fb *FuncBuilder) fail(format string, args ...any) *FuncBuilder {
	if fb.err == nil {
		fb.err = fmt.Errorf("wasmvm: func %q: "+format, append([]any{fb.name}, args...)...)
	}
	return fb
}

// Block opens a block; Br to it jumps past its End.
func (fb *FuncBuilder) Block() *FuncBuilder {
	fb.ctrl = append(fb.ctrl, ctrlFrame{start: len(fb.code)})
	return fb.emit(OpBlock, 0)
}

// Loop opens a loop; Br to it jumps back to its start.
func (fb *FuncBuilder) Loop() *FuncBuilder {
	fb.ctrl = append(fb.ctrl, ctrlFrame{loop: true, start: len(fb.code)})
	return fb.emit(OpLoop, int64(len(fb.code)))
}

// If opens a conditional consuming the top of stack: its body runs
// when the value is non-zero.
func (fb *FuncBuilder) If() *FuncBuilder {
	fb.ctrl = append(fb.ctrl, ctrlFrame{start: len(fb.code)})
	return fb.emit(OpIf, 0)
}

// End closes the innermost frame, patching branch targets.
func (fb *FuncBuilder) End() *FuncBuilder {
	if len(fb.ctrl) == 0 {
		return fb.fail("end without open frame")
	}
	frame := fb.ctrl[len(fb.ctrl)-1]
	fb.ctrl = fb.ctrl[:len(fb.ctrl)-1]
	fb.emit(OpEnd, 0)
	endPC := len(fb.code) // pc just past the end instruction

	if frame.loop {
		// Branches to a loop target its start, set at emit.
		return fb
	}
	// A block, and an if whose condition is false, jump past the end.
	fb.code[frame.start].A = int64(endPC)
	for _, pc := range frame.patches {
		fb.code[pc].A = int64(endPC)
	}
	return fb
}

// branch registers a branch to the frame `depth` levels up
// (0 = innermost) and returns a placeholder; loops resolve
// immediately, blocks/ifs patch at End.
func (fb *FuncBuilder) branch(op Op, depth int) *FuncBuilder {
	if depth < 0 || depth >= len(fb.ctrl) {
		return fb.fail("branch depth %d with %d open frames", depth, len(fb.ctrl))
	}
	idx := len(fb.ctrl) - 1 - depth
	pc := len(fb.code)
	fb.emit(op, 0)
	if fb.ctrl[idx].loop {
		fb.code[pc].A = int64(fb.ctrl[idx].start)
	} else {
		fb.ctrl[idx].patches = append(fb.ctrl[idx].patches, pc)
	}
	return fb
}

// Br emits an unconditional branch to the frame depth levels up.
func (fb *FuncBuilder) Br(depth int) *FuncBuilder { return fb.branch(OpBr, depth) }

// BrIf emits a conditional branch consuming the top of stack.
func (fb *FuncBuilder) BrIf(depth int) *FuncBuilder { return fb.branch(OpBrIf, depth) }

// Plain instruction emitters.

// Return emits an early return.
func (fb *FuncBuilder) Return() *FuncBuilder { return fb.emit(OpReturn, 0) }

// Call emits a call to function index fn.
func (fb *FuncBuilder) Call(fn int) *FuncBuilder { return fb.emit(OpCall, int64(fn)) }

// LocalGet pushes local i.
func (fb *FuncBuilder) LocalGet(i int) *FuncBuilder { return fb.emit(OpLocalGet, int64(i)) }

// LocalSet pops into local i.
func (fb *FuncBuilder) LocalSet(i int) *FuncBuilder { return fb.emit(OpLocalSet, int64(i)) }

// I64Load loads a 64-bit value at popped address + offset.
func (fb *FuncBuilder) I64Load(offset int) *FuncBuilder { return fb.emit(OpI64Load, int64(offset)) }

// I64Store stores a popped value at popped address + offset.
func (fb *FuncBuilder) I64Store(offset int) *FuncBuilder { return fb.emit(OpI64Store, int64(offset)) }

// I64Load8U loads one byte zero-extended.
func (fb *FuncBuilder) I64Load8U(offset int) *FuncBuilder {
	return fb.emit(OpI64Load8U, int64(offset))
}

// I64Store8 stores the low byte of a popped value.
func (fb *FuncBuilder) I64Store8(offset int) *FuncBuilder {
	return fb.emit(OpI64Store8, int64(offset))
}

// I64Const pushes v.
func (fb *FuncBuilder) I64Const(v int64) *FuncBuilder { return fb.emit(OpI64Const, v) }

// F64Const pushes v.
func (fb *FuncBuilder) F64Const(v float64) *FuncBuilder {
	return fb.emit(OpF64Const, int64(math.Float64bits(v)))
}

// Integer arithmetic/comparison emitters.

// I64Add pops b, a and pushes a+b.
func (fb *FuncBuilder) I64Add() *FuncBuilder { return fb.emit(OpI64Add, 0) }

// I64Sub pops b, a and pushes a-b.
func (fb *FuncBuilder) I64Sub() *FuncBuilder { return fb.emit(OpI64Sub, 0) }

// I64Mul pops b, a and pushes a*b.
func (fb *FuncBuilder) I64Mul() *FuncBuilder { return fb.emit(OpI64Mul, 0) }

// I64RemS pops b, a and pushes a%b (traps on b==0).
func (fb *FuncBuilder) I64RemS() *FuncBuilder { return fb.emit(OpI64RemS, 0) }

// I64And pops b, a and pushes a&b.
func (fb *FuncBuilder) I64And() *FuncBuilder { return fb.emit(OpI64And, 0) }

// I64Xor pops b, a and pushes a^b.
func (fb *FuncBuilder) I64Xor() *FuncBuilder { return fb.emit(OpI64Xor, 0) }

// I64ShrS pops b, a and pushes a>>(b&63) (arithmetic).
func (fb *FuncBuilder) I64ShrS() *FuncBuilder { return fb.emit(OpI64ShrS, 0) }

// I64Eqz pops a and pushes a==0.
func (fb *FuncBuilder) I64Eqz() *FuncBuilder { return fb.emit(OpI64Eqz, 0) }

// I64LtS pops b, a and pushes a<b.
func (fb *FuncBuilder) I64LtS() *FuncBuilder { return fb.emit(OpI64LtS, 0) }

// I64GtS pops b, a and pushes a>b.
func (fb *FuncBuilder) I64GtS() *FuncBuilder { return fb.emit(OpI64GtS, 0) }

// I64LeS pops b, a and pushes a<=b.
func (fb *FuncBuilder) I64LeS() *FuncBuilder { return fb.emit(OpI64LeS, 0) }

// I64GeS pops b, a and pushes a>=b.
func (fb *FuncBuilder) I64GeS() *FuncBuilder { return fb.emit(OpI64GeS, 0) }

// Floating-point emitters.

// F64Add pops b, a and pushes a+b.
func (fb *FuncBuilder) F64Add() *FuncBuilder { return fb.emit(OpF64Add, 0) }

// F64Mul pops b, a and pushes a*b.
func (fb *FuncBuilder) F64Mul() *FuncBuilder { return fb.emit(OpF64Mul, 0) }

// F64Sqrt pops a and pushes sqrt(a).
func (fb *FuncBuilder) F64Sqrt() *FuncBuilder { return fb.emit(OpF64Sqrt, 0) }

// I64TruncF64S pops an f64 and pushes its integer truncation.
func (fb *FuncBuilder) I64TruncF64S() *FuncBuilder { return fb.emit(OpI64TruncF64S, 0) }

// build finalizes the function.
func (fb *FuncBuilder) build() (Func, error) {
	if fb.err != nil {
		return Func{}, fb.err
	}
	if len(fb.ctrl) != 0 {
		return Func{}, fmt.Errorf("wasmvm: func %q: %d unclosed frames", fb.name, len(fb.ctrl))
	}
	return Func{
		Name:    fb.name,
		Params:  fb.params,
		Results: fb.results,
		Locals:  fb.locals,
		Code:    fb.code,
	}, nil
}
