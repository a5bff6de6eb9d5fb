package wasmvm

// Superinstructions. A function's hot loops are a handful of short,
// straight-line sequences (a loop header that compares two locals and
// exits, an increment followed by the back edge, a load or store with
// its address arithmetic); call runs each of them as one dispatch.
//
// The bytecode does not change. NewInstance builds a dispatch table per
// function, the same length as Code: entry pc holds Code[pc]'s
// immediate and either Code[pc]'s own op or a fused op that retires
// Code[pc:pc+n] at once. Validate lets a branch land only on a frame's
// label, and no pattern holds an end, or a loop past its first
// instruction, so no branch lands inside a fused run; the pc
// space, branch targets, Validate and Disassemble are those of Code.
//
// Accounting is what the n instructions would have cost one at a time:
// a fused op burns n fuel (Instructions is what an invoke burnt) and
// raises MaxStack to its entry height plus the highest height any of
// the n sees at dispatch. When less than n fuel is left, call makes the
// entry plain for the rest of the invoke and dispatches Code[pc] alone,
// so a starved invoke stops on the same instruction. A fused op that
// traps on its memory access refunds the instructions after it; every
// pattern reaches its highest height at or before its memory access
// (TestPatternsPeakByTheirTrap), so the trap's MaxStack is exact too.

// Fused ops, numbered after the plain ones so the switch in call stays
// one dense table.
const (
	// loop; local.get a; local.get b; i64.gt_s; br_if T
	opLoopGtSBrIf Op = OpI64TruncF64S + 1 + iota
	// loop; local.get a; local.get b; i64.ge_s; br_if T
	opLoopGeSBrIf
	// loop; local.get a; i64.const c; i64.add; local.get b; i64.gt_s; br_if T
	opLoopAddGtSBrIf
	// local.get a; i64.const c; i64.lt_s; if T
	opLtSConstIf
	// local.get a; i64.const c; i64.sub
	opSubConst
	// local.get a; i64.const c; i64.add; local.set d; br T
	opAddConstSetBr
	// local.get a; local.get b; i64.add; local.set d; br T
	opAddLocalsSetBr
	// local.get a; local.get b; i64.mul; local.get c; i64.add; i64.const k; i64.mul
	opIndex
	// local.get a; local.get b; i64.const c; i64.mul; i64.store off
	opMulConstStore
	// local.get a; i64.const c; i64.store8 off
	opConstStore8
	// local.get a; local.get b; i64.load off; i64.xor; local.set d
	opLoadXorSet
	// local.get a; i64.load8_u off; i64.eqz
	opLoad8Eqz
	// local.get a; local.get b; f64.mul; f64.const c; f64.add; f64.sqrt; local.set d
	opF64MulAddSqrtSet
)

// patterns lists the op sequence each fused op retires. They were
// picked from dynamic n-gram counts of the launcher's five exports at
// the figures and guest-mix arguments (DESIGN.md §16); no two start
// alike, so at most one matches at any pc.
var patterns = []struct {
	op  Op
	seq []Op
}{
	{opLoopGtSBrIf, []Op{OpLoop, OpLocalGet, OpLocalGet, OpI64GtS, OpBrIf}},
	{opLoopGeSBrIf, []Op{OpLoop, OpLocalGet, OpLocalGet, OpI64GeS, OpBrIf}},
	{opLoopAddGtSBrIf, []Op{OpLoop, OpLocalGet, OpI64Const, OpI64Add, OpLocalGet, OpI64GtS, OpBrIf}},
	{opLtSConstIf, []Op{OpLocalGet, OpI64Const, OpI64LtS, OpIf}},
	{opSubConst, []Op{OpLocalGet, OpI64Const, OpI64Sub}},
	{opAddConstSetBr, []Op{OpLocalGet, OpI64Const, OpI64Add, OpLocalSet, OpBr}},
	{opAddLocalsSetBr, []Op{OpLocalGet, OpLocalGet, OpI64Add, OpLocalSet, OpBr}},
	{opIndex, []Op{OpLocalGet, OpLocalGet, OpI64Mul, OpLocalGet, OpI64Add, OpI64Const, OpI64Mul}},
	{opMulConstStore, []Op{OpLocalGet, OpLocalGet, OpI64Const, OpI64Mul, OpI64Store}},
	{opConstStore8, []Op{OpLocalGet, OpI64Const, OpI64Store8}},
	{opLoadXorSet, []Op{OpLocalGet, OpLocalGet, OpI64Load, OpI64Xor, OpLocalSet}},
	{opLoad8Eqz, []Op{OpLocalGet, OpI64Load8U, OpI64Eqz}},
	{opF64MulAddSqrtSet, []Op{OpLocalGet, OpLocalGet, OpF64Mul, OpF64Const, OpF64Add, OpF64Sqrt, OpLocalSet}},
}

// xinstr is one entry of a function's dispatch table.
type xinstr struct {
	// a is Code[pc].A.
	a int64
	// op is what call dispatches on: plain, or a fused op.
	op Op
	// plain is Code[pc].Op.
	plain Op
	// n is the number of instructions op retires; h the highest operand
	// height above the entry height that any of them sees at dispatch.
	n, h uint8
}

// unfused is a dispatch-table entry made plain mid-invoke, and what
// it was.
type unfused struct {
	x   *xinstr
	was xinstr
}

// buildDispatch returns the dispatch table of every function of m,
// all cut from one array.
func buildDispatch(m *Module) [][]xinstr {
	size := 0
	for i := range m.Funcs {
		size += len(m.Funcs[i].Code)
	}
	all := make([]xinstr, 0, size)
	tabs := make([][]xinstr, len(m.Funcs))
	for i := range m.Funcs {
		code := m.Funcs[i].Code
		for pc, ins := range code {
			x := xinstr{a: ins.A, op: ins.Op, plain: ins.Op, n: 1}
			for _, p := range patterns {
				if matches(code[pc:], p.seq) {
					x.op, x.n, x.h = p.op, uint8(len(p.seq)), uint8(peak(p.seq))
					break
				}
			}
			all = append(all, x)
		}
		tabs[i] = all[len(all)-len(code):]
	}
	return tabs
}

func matches(code []Instr, seq []Op) bool {
	if len(code) < len(seq) {
		return false
	}
	for i, op := range seq {
		if code[i].Op != op {
			return false
		}
	}
	return true
}

// peak is the highest operand height above the entry height that any
// instruction of seq sees at dispatch.
func peak(seq []Op) int {
	h, top := 0, 0
	for _, op := range seq {
		top = max(top, h)
		pops, pushes := stackEffect(op)
		h += pushes - pops
	}
	return top
}
