package wasmvm

import (
	"math/rand"
	"testing"
)

// exprNode is a random arithmetic expression over two i64 parameters,
// evaluated both directly in Go and through compiled bytecode. The
// remainder keeps a non-zero right side by construction.
type exprNode struct {
	op          byte // 'x','y','c' leaves; '+','-','*','%','&','^','>' inner
	val         int64
	left, right *exprNode
}

func randExpr(rng *rand.Rand, depth int) *exprNode {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return &exprNode{op: 'x'}
		case 1:
			return &exprNode{op: 'y'}
		default:
			return &exprNode{op: 'c', val: int64(rng.Intn(201) - 100)}
		}
	}
	ops := []byte{'+', '-', '*', '%', '&', '^', '>'}
	op := ops[rng.Intn(len(ops))]
	n := &exprNode{op: op, left: randExpr(rng, depth-1), right: randExpr(rng, depth-1)}
	if op == '%' {
		// Guarantee a non-zero, positive divisor.
		n.right = &exprNode{op: 'c', val: int64(rng.Intn(50) + 1)}
	}
	return n
}

func (e *exprNode) eval(x, y int64) int64 {
	switch e.op {
	case 'x':
		return x
	case 'y':
		return y
	case 'c':
		return e.val
	}
	l, r := e.left.eval(x, y), e.right.eval(x, y)
	switch e.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '%':
		return l % r
	case '&':
		return l & r
	case '^':
		return l ^ r
	default:
		return l >> (uint64(r) & 63)
	}
}

func (e *exprNode) emit(fb *FuncBuilder) {
	switch e.op {
	case 'x':
		fb.LocalGet(0)
		return
	case 'y':
		fb.LocalGet(1)
		return
	case 'c':
		fb.I64Const(e.val)
		return
	}
	e.left.emit(fb)
	e.right.emit(fb)
	switch e.op {
	case '+':
		fb.I64Add()
	case '-':
		fb.I64Sub()
	case '*':
		fb.I64Mul()
	case '%':
		fb.I64RemS()
	case '&':
		fb.I64And()
	case '^':
		fb.I64Xor()
	default:
		fb.I64ShrS()
	}
}

// TestRandomExpressionsMatchDirectEvaluation compiles random
// expression trees to bytecode and checks the interpreter against
// direct Go evaluation over many inputs — a differential test of the
// builder, validator, and interpreter together.
func TestRandomExpressionsMatchDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for round := 0; round < 60; round++ {
		expr := randExpr(rng, 5)

		mb := NewModuleBuilder()
		fb := NewFuncBuilder("f", 2, 1, 0)
		expr.emit(fb)
		mb.AddFunc(fb)
		m, err := mb.Build()
		if err != nil {
			t.Fatalf("round %d: build: %v", round, err)
		}
		in, err := NewInstance(m)
		if err != nil {
			t.Fatalf("round %d: instantiate: %v", round, err)
		}
		for trial := 0; trial < 20; trial++ {
			x := int64(rng.Intn(2001) - 1000)
			y := int64(rng.Intn(2001) - 1000)
			got, err := in.Invoke("f", x, y)
			if err != nil {
				t.Fatalf("round %d f(%d,%d): %v\n%s", round, x, y, err, Disassemble(m.Funcs[0]))
			}
			if want := expr.eval(x, y); got[0] != want {
				t.Fatalf("round %d f(%d,%d) = %d, want %d\n%s",
					round, x, y, got[0], want, Disassemble(m.Funcs[0]))
			}
		}
	}
}

// TestRandomControlFlow compiles clamp(x, lo, hi) implemented with
// nested ifs against direct evaluation.
func TestRandomControlFlow(t *testing.T) {
	mb := NewModuleBuilder()
	// clamp(x, lo, hi): r = x; if x < lo { r = lo; return r }; if x > hi { r = hi }
	fb := NewFuncBuilder("clamp", 3, 1, 1)
	fb.LocalGet(0).LocalSet(3)
	fb.LocalGet(0).LocalGet(1).I64LtS().If().
		LocalGet(1).LocalSet(3).
		LocalGet(3).Return().
		End()
	fb.LocalGet(0).LocalGet(2).I64GtS().If().
		LocalGet(2).LocalSet(3).
		End()
	fb.LocalGet(3)
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		x := int64(rng.Intn(400) - 200)
		lo := int64(rng.Intn(100) - 50)
		hi := lo + int64(rng.Intn(100))
		want := x
		if x < lo {
			want = lo
		} else if x > hi {
			want = hi
		}
		got, err := in.Invoke("clamp", x, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("clamp(%d,%d,%d) = %d, want %d", x, lo, hi, got[0], want)
		}
	}
}

// TestLoopSumMatches compiles sum(1..n) with a loop and compares with
// the closed form across n.
func TestLoopSumMatches(t *testing.T) {
	mb := NewModuleBuilder()
	fb := NewFuncBuilder("sum", 1, 1, 2) // locals: 1=i, 2=acc
	fb.I64Const(1).LocalSet(1)
	fb.I64Const(0).LocalSet(2)
	fb.Block().Loop().
		LocalGet(1).LocalGet(0).I64GtS().BrIf(1).
		LocalGet(2).LocalGet(1).I64Add().LocalSet(2).
		LocalGet(1).I64Const(1).I64Add().LocalSet(1).
		Br(0).
		End().End()
	fb.LocalGet(2)
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n <= 200; n += 7 {
		got, err := in.Invoke("sum", n)
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n + 1) / 2; got[0] != want {
			t.Fatalf("sum(%d) = %d, want %d", n, got[0], want)
		}
	}
}

// TestDeepExpressionStack exercises large operand stacks.
func TestDeepExpressionStack(t *testing.T) {
	mb := NewModuleBuilder()
	fb := NewFuncBuilder("deep", 0, 1, 0)
	const depth = 500
	for i := 0; i < depth; i++ {
		fb.I64Const(1)
	}
	for i := 0; i < depth-1; i++ {
		fb.I64Add()
	}
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := in.Invoke("deep")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != depth {
		t.Fatalf("deep = %d, want %d", got[0], depth)
	}
	if in.Stats().MaxStack < depth {
		t.Errorf("max stack %d, want ≥ %d", in.Stats().MaxStack, depth)
	}
}

// TestFuzzishArityMismatch makes sure random arg counts never panic.
func TestFuzzishArityMismatch(t *testing.T) {
	m, err := BuildBenchModule()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	for name := range m.exports {
		for args := 0; args <= 4; args++ {
			argv := make([]int64, args)
			// Must return cleanly (result or ErrBadArity), never panic.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s with %d args panicked: %v", name, args, r)
					}
				}()
				in.Fuel = 1_000_000
				_, _ = in.Invoke(name, argv...)
			}()
		}
	}
}
