package wasmvm

import (
	"fmt"
	"strings"
)

// Disassemble renders a function's code as indented text, one
// instruction per line, with structured-control indentation and branch
// targets annotated: the view the tests and FuzzWasmModule print when
// a function misbehaves.
func Disassemble(f Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (params %d) (results %d) (locals %d)\n",
		name(f.Name), f.Params, f.Results, f.Locals)
	depth := 1
	for pc, ins := range f.Code {
		if ins.Op == OpEnd && depth > 1 {
			depth--
		}
		fmt.Fprintf(&sb, "%5d: %s%s", pc, strings.Repeat("  ", depth), ins.Op)
		switch ins.Op {
		case OpI64Const, OpLocalGet, OpLocalSet, OpCall:
			fmt.Fprintf(&sb, " %d", ins.A)
		case OpF64Const:
			fmt.Fprintf(&sb, " %v", i2f(ins.A))
		case OpI64Load, OpI64Store, OpI64Load8U, OpI64Store8:
			fmt.Fprintf(&sb, " offset=%d", ins.A)
		case OpBr, OpBrIf, OpIf, OpBlock, OpLoop:
			fmt.Fprintf(&sb, " → %d", ins.A)
		}
		sb.WriteByte('\n')
		switch ins.Op {
		case OpBlock, OpLoop, OpIf:
			depth++
		}
	}
	return sb.String()
}

func name(s string) string {
	if s == "" {
		return "<anonymous>"
	}
	return s
}
