package wasmvm

import "fmt"

// stackEffect returns (pops, pushes) for op. Control-flow and call
// opcodes are handled specially by the validator.
func stackEffect(op Op) (pops, pushes int) {
	switch op {
	case OpIf, OpBrIf, OpLocalSet:
		return 1, 0
	case OpLocalGet, OpI64Const, OpF64Const:
		return 0, 1
	case OpI64Load, OpI64Load8U, OpI64Eqz, OpF64Sqrt, OpI64TruncF64S:
		return 1, 1
	case OpI64Store, OpI64Store8:
		return 2, 0
	case OpI64Add, OpI64Sub, OpI64Mul, OpI64RemS, OpI64And, OpI64Xor,
		OpI64ShrS, OpI64LtS, OpI64GtS, OpI64LeS, OpI64GeS,
		OpF64Add, OpF64Mul:
		return 2, 1
	default:
		// Block, loop, end and br move nothing.
		return 0, 0
	}
}

// Validate checks structural well-formedness of a module: known
// opcodes, index bounds for locals and calls, control
// instructions that carry their frame's targets, branches only to the
// label of an enclosing frame, plus a linear operand-stack balance walk
// per function. Builder-produced structured code passes; hand-mangled
// code is rejected before it can corrupt the interpreter.
func Validate(m *Module) error {
	if m == nil {
		return fmt.Errorf("%w: nil module", ErrValidation)
	}
	if m.MemPages < 0 {
		return fmt.Errorf("%w: memory pages %d", ErrValidation, m.MemPages)
	}
	var v validator
	for fi := range m.Funcs {
		if err := v.function(m, &m.Funcs[fi]); err != nil {
			return err
		}
	}
	for name, idx := range m.exports {
		if idx < 0 || idx >= len(m.Funcs) {
			return fmt.Errorf("%w: export %q references func %d of %d",
				ErrValidation, name, idx, len(m.Funcs))
		}
	}
	return nil
}

// validator is the scratch one Validate call reuses across the
// module's functions.
type validator struct {
	// label is per pc; see pairFrames. open holds the pcs of the
	// unclosed blocks, loops and ifs.
	label  []int
	open   []int
	frames []vframe
}

// vframe is a control frame of the stack walk: the label a branch to
// it lands on, the operand height at entry, and whether it opened in
// reachable code, which the code after its end inherits.
type vframe struct {
	label, entry int
	live         bool
}

// fail builds a validation error at pc of f.
func fail(f *Func, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: func %q pc %d: %s",
		ErrValidation, f.Name, pc, fmt.Sprintf(format, args...))
}

// pairFrames pairs each block, loop and if of f with its end. It sets
// label[pc] of each opener to the pc a branch to its frame lands on,
// which is also the target the opener must carry: a loop's own pc, the
// pc past a block's or an if's end.
func (v *validator) pairFrames(f *Func) error {
	n := len(f.Code)
	if cap(v.label) < n {
		v.label = make([]int, n)
	}
	v.label, v.open = v.label[:n], v.open[:0]
	for pc, ins := range f.Code {
		switch ins.Op {
		case OpBlock, OpLoop, OpIf:
			v.open = append(v.open, pc)
		case OpEnd:
			top := len(v.open) - 1
			if top < 0 {
				return fail(f, pc, "end outside frame")
			}
			o := v.open[top]
			v.open = v.open[:top]
			v.label[o] = pc + 1
			if f.Code[o].Op == OpLoop {
				v.label[o] = o
			}
		}
	}
	if len(v.open) != 0 {
		return fail(f, n, "%d unclosed frames", len(v.open))
	}
	return nil
}

// function validates f, one function of m.
func (v *validator) function(m *Module, f *Func) error {
	nLocals := f.Params + f.Locals
	if err := v.pairFrames(f); err != nil {
		return err
	}
	label := v.label

	// Control frames track the operand height at frame entry. Blocks,
	// loops and ifs are void-typed in this VM: a frame must leave the
	// stack at its entry height, and a branch must arrive at it (values
	// flow through locals), which keeps the linear walk exact even
	// across branch edges.
	v.frames = v.frames[:0]
	height := 0
	reachable := true
	for pc, ins := range f.Code {
		if ins.Op < OpBlock || ins.Op > OpI64TruncF64S {
			return fail(f, pc, "unknown opcode %s", ins.Op)
		}
		switch ins.Op {
		case OpLocalGet, OpLocalSet:
			if ins.A < 0 || ins.A >= int64(nLocals) {
				return fail(f, pc, "local index %d of %d", ins.A, nLocals)
			}
		case OpCall:
			if ins.A < 0 || ins.A >= int64(len(m.Funcs)) {
				return fail(f, pc, "call target %d of %d funcs", ins.A, len(m.Funcs))
			}
		case OpBlock, OpLoop, OpIf:
			if ins.A != int64(label[pc]) {
				return fail(f, pc, "%s target %d, want %d", ins.Op, ins.A, label[pc])
			}
		case OpI64Load, OpI64Store, OpI64Load8U, OpI64Store8:
			if m.MemPages == 0 {
				return fail(f, pc, "memory access without declared memory")
			}
			if ins.A < 0 {
				return fail(f, pc, "negative static offset %d", ins.A)
			}
		}

		// Stack-balance walk with explicit control frames. After an
		// unconditional transfer (br, return) the walk is suspended
		// until the end of a live frame re-anchors the height at that
		// frame's entry.
		switch ins.Op {
		case OpBlock, OpLoop, OpIf:
			if ins.Op == OpIf && reachable {
				if height < 1 {
					return fail(f, pc, "if with empty stack")
				}
				height--
			}
			v.frames = append(v.frames, vframe{label: label[pc], entry: height, live: reachable})
			continue
		case OpEnd:
			top := v.frames[len(v.frames)-1]
			v.frames = v.frames[:len(v.frames)-1]
			if reachable && height != top.entry {
				return fail(f, pc, "frame leaves stack at %d, entered at %d (use locals)", height, top.entry)
			}
			height, reachable = top.entry, top.live
			continue
		case OpBr, OpBrIf:
			target := len(v.frames) - 1
			for target >= 0 && int64(v.frames[target].label) != ins.A {
				target--
			}
			if target < 0 {
				return fail(f, pc, "%s target %d is no enclosing frame's label", ins.Op, ins.A)
			}
			if !reachable {
				continue
			}
			if ins.Op == OpBrIf {
				if height < 1 {
					return fail(f, pc, "br_if with empty stack")
				}
				height--
			}
			if height != v.frames[target].entry {
				return fail(f, pc, "%s leaves stack at %d, target frame entered at %d (use locals)",
					ins.Op, height, v.frames[target].entry)
			}
			reachable = ins.Op == OpBrIf
			continue
		}
		if !reachable {
			continue
		}
		var pops, pushes int
		switch ins.Op {
		case OpCall:
			callee := &m.Funcs[ins.A]
			pops, pushes = callee.Params, callee.Results
		case OpReturn:
			if height < f.Results {
				return fail(f, pc, "return with stack height %d, need %d", height, f.Results)
			}
			reachable = false
			continue
		default:
			pops, pushes = stackEffect(ins.Op)
		}
		if height < pops {
			return fail(f, pc, "%s pops %d with stack height %d", ins.Op, pops, height)
		}
		height += pushes - pops
	}
	if reachable && height != f.Results {
		return fmt.Errorf("%w: func %q: final stack height %d, want %d results",
			ErrValidation, f.Name, height, f.Results)
	}
	return nil
}
