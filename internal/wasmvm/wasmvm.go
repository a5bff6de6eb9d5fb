// Package wasmvm implements a small WebAssembly-style virtual machine
// used as ConfBench's Wasm runtime substrate (the paper uses the Wasmi
// interpreter, §IV-B).
//
// The VM executes a typed, stack-based bytecode with structured
// control flow (blocks, loops, conditionals), function calls, and a
// linear memory of 64 KiB pages, declared size fixed, backed on first
// access. Its instruction set is exactly
// what the bench module's programs use (programs.go). Modules are built
// programmatically with FuncBuilder, validated (operand-stack balance,
// branch depths, index bounds), and interpreted with instruction-level
// fuel metering. Execution reports abstract instruction counts and
// memory traffic into a meter.Context so the TEE cost models can price
// it like any other workload.
package wasmvm

import (
	"errors"
	"fmt"
)

// Op is a bytecode opcode.
type Op byte

// Opcodes: the core Wasm MVP instructions BuildBenchModule emits, and
// no others (TestBenchModuleUsesEveryOp holds the two sets equal).
const (
	OpBlock Op = iota + 1 // A = jump target past matching end (patched)
	OpLoop                // A = own pc (branch target)
	OpIf                  // A = jump target past end when condition is false
	OpEnd
	OpBr   // A = target pc
	OpBrIf // A = target pc
	OpReturn
	OpCall // A = function index

	OpLocalGet // A = local index
	OpLocalSet

	OpI64Load  // A = static offset
	OpI64Store // A = static offset
	OpI64Load8U
	OpI64Store8

	OpI64Const // A = value
	OpI64Add
	OpI64Sub
	OpI64Mul
	OpI64RemS
	OpI64And
	OpI64Xor
	OpI64ShrS
	OpI64Eqz
	OpI64LtS
	OpI64GtS
	OpI64LeS
	OpI64GeS

	OpF64Const // A = math.Float64bits(value)
	OpF64Add
	OpF64Mul
	OpF64Sqrt
	OpI64TruncF64S
)

var opNames = map[Op]string{
	OpBlock: "block", OpLoop: "loop", OpIf: "if", OpEnd: "end",
	OpBr: "br", OpBrIf: "br_if", OpReturn: "return", OpCall: "call",
	OpLocalGet: "local.get", OpLocalSet: "local.set",
	OpI64Load: "i64.load", OpI64Store: "i64.store",
	OpI64Load8U: "i64.load8_u", OpI64Store8: "i64.store8",
	OpI64Const: "i64.const", OpI64Add: "i64.add", OpI64Sub: "i64.sub",
	OpI64Mul: "i64.mul", OpI64RemS: "i64.rem_s", OpI64And: "i64.and",
	OpI64Xor: "i64.xor", OpI64ShrS: "i64.shr_s", OpI64Eqz: "i64.eqz",
	OpI64LtS: "i64.lt_s", OpI64GtS: "i64.gt_s", OpI64LeS: "i64.le_s",
	OpI64GeS:   "i64.ge_s",
	OpF64Const: "f64.const", OpF64Add: "f64.add", OpF64Mul: "f64.mul",
	OpF64Sqrt: "f64.sqrt", OpI64TruncF64S: "i64.trunc_f64_s",
}

// String names the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Instr is one decoded instruction. A carries the immediate: constant
// value, index, static memory offset, or patched branch target.
type Instr struct {
	Op Op
	A  int64
}

// PageSize is the linear-memory page granularity.
const PageSize = 65536

// Execution and validation errors.
var (
	ErrStackUnderflow = errors.New("wasmvm: operand stack underflow")
	ErrDivByZero      = errors.New("wasmvm: integer divide by zero")
	ErrOOB            = errors.New("wasmvm: out-of-bounds memory access")
	ErrFuelExhausted  = errors.New("wasmvm: fuel exhausted")
	ErrNoExport       = errors.New("wasmvm: export not found")
	ErrBadArity       = errors.New("wasmvm: wrong argument count")
	ErrCallDepth      = errors.New("wasmvm: call stack exhausted")
	ErrValidation     = errors.New("wasmvm: validation failed")
)

// Func is one function: parameter/result arity, extra locals, and a
// flat, branch-resolved instruction sequence.
type Func struct {
	Name    string
	Params  int
	Results int
	Locals  int
	Code    []Instr
}

// Module is a complete Wasm-style module.
type Module struct {
	Funcs []Func
	// MemPages is the linear memory size in pages; 0 means "no memory".
	MemPages int
	exports  map[string]int
}

// ExportIndex resolves an exported function name.
func (m *Module) ExportIndex(name string) (int, error) {
	idx, ok := m.exports[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoExport, name)
	}
	return idx, nil
}
