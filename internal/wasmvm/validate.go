package wasmvm

import "fmt"

// stackEffect returns (pops, pushes) for op. Control-flow and call
// opcodes are handled specially by the validator.
func stackEffect(op Op) (pops, pushes int) {
	switch op {
	case OpNop, OpBlock, OpLoop, OpElse, OpEnd, OpBr, OpUnreachable:
		return 0, 0
	case OpIf, OpBrIf, OpDrop:
		return 1, 0
	case OpSelect:
		return 3, 1
	case OpLocalGet, OpGlobalGet, OpI64Const, OpF64Const, OpMemorySize:
		return 0, 1
	case OpLocalSet, OpGlobalSet:
		return 1, 0
	case OpLocalTee, OpI64Load, OpI64Load8U, OpMemoryGrow,
		OpI64Eqz, OpF64Sqrt, OpF64Abs, OpF64Neg,
		OpF64ConvertI64S, OpI64TruncF64S:
		return 1, 1
	case OpI64Store, OpI64Store8:
		return 2, 0
	case OpI64Add, OpI64Sub, OpI64Mul, OpI64DivS, OpI64RemS,
		OpI64And, OpI64Or, OpI64Xor, OpI64Shl, OpI64ShrS,
		OpI64Eq, OpI64Ne, OpI64LtS, OpI64GtS, OpI64LeS, OpI64GeS,
		OpF64Add, OpF64Sub, OpF64Mul, OpF64Div,
		OpF64Eq, OpF64Lt, OpF64Gt:
		return 2, 1
	default:
		return 0, 0
	}
}

// Validate checks structural well-formedness of a module: known
// opcodes, index bounds for locals, globals and calls, control
// instructions that carry their frame's targets, branches only to the
// label of an enclosing frame, plus a linear operand-stack balance walk
// per function. Builder-produced structured code passes; hand-mangled
// code is rejected before it can corrupt the interpreter.
func Validate(m *Module) error {
	if m == nil {
		return fmt.Errorf("%w: nil module", ErrValidation)
	}
	if m.MemPages < 0 || m.MemMaxPages < 0 || (m.MemMaxPages > 0 && m.MemPages > m.MemMaxPages) {
		return fmt.Errorf("%w: memory pages %d/%d", ErrValidation, m.MemPages, m.MemMaxPages)
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
	// label and jump are per pc; see pairFrames.
	label, jump []int
	open        []opener
	frames      []vframe
}

// opener is an unclosed block, loop or if, and its else pc (-1: none).
type opener struct{ pc, els int }

// vframe is a control frame of the stack walk: the label a branch to
// it lands on, the operand height at entry, and whether it opened in
// reachable code, which its else arm and the code after its end
// inherit.
type vframe struct {
	label, entry int
	live         bool
}

// fail builds a validation error at pc of f.
func fail(f *Func, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: func %q pc %d: %s",
		ErrValidation, f.Name, pc, fmt.Sprintf(format, args...))
}

// pairFrames pairs each block, loop and if (and else) of f with its
// end. It sets label[pc] of each opener to the pc a branch to its frame
// lands on (a loop's own pc, the pc past a block's or if's end), and
// jump[pc] of each control instruction to the target it must carry: a
// block and an else jump past their end, a loop to itself, an if past
// its else or else its end.
func (v *validator) pairFrames(f *Func) error {
	n := len(f.Code)
	if cap(v.label) < n {
		v.label, v.jump = make([]int, n), make([]int, n)
	}
	v.label, v.jump, v.open = v.label[:n], v.jump[:n], v.open[:0]
	for pc, ins := range f.Code {
		switch ins.Op {
		case OpBlock, OpLoop, OpIf:
			v.open = append(v.open, opener{pc: pc, els: -1})
		case OpElse:
			top := len(v.open) - 1
			if top < 0 || f.Code[v.open[top].pc].Op != OpIf || v.open[top].els >= 0 {
				return fail(f, pc, "else outside an if frame")
			}
			v.open[top].els = pc
		case OpEnd:
			top := len(v.open) - 1
			if top < 0 {
				return fail(f, pc, "end outside frame")
			}
			o := v.open[top]
			v.open = v.open[:top]
			v.label[o.pc], v.jump[o.pc] = pc+1, pc+1
			switch {
			case f.Code[o.pc].Op == OpLoop:
				v.label[o.pc], v.jump[o.pc] = o.pc, o.pc
			case o.els >= 0:
				v.jump[o.pc], v.jump[o.els] = o.els+1, pc+1
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
	label, jump := v.label, v.jump

	// Control frames track the operand height at frame entry. Blocks,
	// loops and ifs are void-typed in this VM: a frame must leave the
	// stack at its entry height, and a branch must arrive at it (values
	// flow through locals), which keeps the linear walk exact even
	// across else/branch edges.
	v.frames = v.frames[:0]
	height := 0
	reachable := true
	for pc, ins := range f.Code {
		if ins.Op < OpUnreachable || ins.Op > OpI64TruncF64S {
			return fail(f, pc, "unknown opcode %s", ins.Op)
		}
		switch ins.Op {
		case OpLocalGet, OpLocalSet, OpLocalTee:
			if ins.A < 0 || ins.A >= int64(nLocals) {
				return fail(f, pc, "local index %d of %d", ins.A, nLocals)
			}
		case OpGlobalGet, OpGlobalSet:
			if ins.A < 0 || ins.A >= int64(len(m.Globals)) {
				return fail(f, pc, "global index %d of %d", ins.A, len(m.Globals))
			}
		case OpCall:
			if ins.A < 0 || ins.A >= int64(len(m.Funcs)) {
				return fail(f, pc, "call target %d of %d funcs", ins.A, len(m.Funcs))
			}
		case OpBlock, OpLoop, OpIf, OpElse:
			if ins.A != int64(jump[pc]) {
				return fail(f, pc, "%s target %d, want %d", ins.Op, ins.A, jump[pc])
			}
		case OpI64Load, OpI64Store, OpI64Load8U, OpI64Store8:
			if m.MemPages == 0 && m.MemMaxPages == 0 {
				return fail(f, pc, "memory access without declared memory")
			}
			if ins.A < 0 {
				return fail(f, pc, "negative static offset %d", ins.A)
			}
		}

		// Stack-balance walk with explicit control frames. After an
		// unconditional transfer (br, return, unreachable) the walk is
		// suspended until an else or end of a live frame re-anchors the
		// height at that frame's entry.
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
		case OpElse, OpEnd:
			top := v.frames[len(v.frames)-1]
			if ins.Op == OpEnd {
				v.frames = v.frames[:len(v.frames)-1]
			}
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
		case OpUnreachable:
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
