package wasmvm

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func benchInstance(t testing.TB) *Instance {
	t.Helper()
	m, err := BuildBenchModule()
	if err != nil {
		t.Fatalf("build bench module: %v", err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return in
}

func invoke1(t *testing.T, in *Instance, name string, args ...int64) int64 {
	t.Helper()
	res, err := in.Invoke(name, args...)
	if err != nil {
		t.Fatalf("invoke %s(%v): %v", name, args, err)
	}
	if len(res) != 1 {
		t.Fatalf("invoke %s: got %d results", name, len(res))
	}
	return res[0]
}

func TestFibRecursive(t *testing.T) {
	in := benchInstance(t)
	want := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, w := range want {
		if got := invoke1(t, in, "fib", int64(n)); got != w {
			t.Errorf("fib(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestFibIterMatchesRecursive(t *testing.T) {
	in := benchInstance(t)
	for n := int64(0); n <= 20; n++ {
		rec := invoke1(t, in, "fib", n)
		iter := invoke1(t, in, "fib_iter", n)
		if rec != iter {
			t.Errorf("fib(%d): recursive %d != iterative %d", n, rec, iter)
		}
	}
}

func TestSieve(t *testing.T) {
	in := benchInstance(t)
	cases := map[int64]int64{10: 4, 100: 25, 1000: 168, 10000: 1229}
	for limit, want := range cases {
		if got := invoke1(t, in, "sieve", limit); got != want {
			t.Errorf("sieve(%d) = %d, want %d", limit, got, want)
		}
	}
}

func TestSieveRepeatable(t *testing.T) {
	in := benchInstance(t)
	first := invoke1(t, in, "sieve", 1000)
	second := invoke1(t, in, "sieve", 1000)
	if first != second {
		t.Errorf("sieve not idempotent: %d then %d", first, second)
	}
}

func TestMatMul(t *testing.T) {
	in := benchInstance(t)
	// Reference in Go: A[i]=i%7, B[i]=i%5, C=(A×B), return C[n-1][n-1].
	ref := func(n int64) int64 {
		a := make([]int64, n*n)
		b := make([]int64, n*n)
		for i := int64(0); i < n*n; i++ {
			a[i], b[i] = i%7, i%5
		}
		var sum int64
		i, j := n-1, n-1
		for k := int64(0); k < n; k++ {
			sum += a[i*n+k] * b[k*n+j]
		}
		return sum
	}
	for _, n := range []int64{1, 2, 3, 8, 16} {
		if got, want := invoke1(t, in, "matmul", n), ref(n); got != want {
			t.Errorf("matmul(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestGCD(t *testing.T) {
	in := benchInstance(t)
	cases := [][3]int64{{12, 18, 6}, {17, 5, 1}, {100, 0, 100}, {0, 7, 7}, {252, 105, 21}}
	for _, c := range cases {
		if got := invoke1(t, in, "gcd", c[0], c[1]); got != c[2] {
			t.Errorf("gcd(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestGCDPropertyMatchesEuclid(t *testing.T) {
	in := benchInstance(t)
	euclid := func(a, b int64) int64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		return invoke1(t, in, "gcd", x, y) == euclid(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPowMod(t *testing.T) {
	in := benchInstance(t)
	ref := func(base, exp, mod int64) int64 {
		r := int64(1)
		base %= mod
		for e := exp; e > 0; e >>= 1 {
			if e&1 == 1 {
				r = r * base % mod
			}
			base = base * base % mod
		}
		return r
	}
	f := func(b, e uint8, m uint8) bool {
		mod := int64(m)%1000 + 2
		return invoke1(t, in, "powmod", int64(b), int64(e), mod) == ref(int64(b), int64(e), mod)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCPUStressConverges(t *testing.T) {
	in := benchInstance(t)
	// x = sqrt(x² + 0.25) grows without bound slowly; just check the
	// kernel runs and yields a sane positive value.
	got := invoke1(t, in, "cpustress", 1000)
	if got <= 1000 {
		t.Errorf("cpustress(1000) = %d, want > 1000 (x > 1.0)", got)
	}
}

func TestMemStressChecksumDeterministic(t *testing.T) {
	in := benchInstance(t)
	a := invoke1(t, in, "memstress", 1<<16)
	b := invoke1(t, in, "memstress", 1<<16)
	if a != b {
		t.Errorf("memstress checksum not deterministic: %d vs %d", a, b)
	}
}

func TestFuelExhaustion(t *testing.T) {
	in := benchInstance(t)
	in.Fuel = 100
	if _, err := in.Invoke("fib", 30); !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("want ErrFuelExhausted, got %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	in := benchInstance(t)
	invoke1(t, in, "fib_iter", 10)
	st := in.Stats()
	if st.Instructions == 0 || st.Calls == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
	in.ResetStats()
	if in.Stats().Instructions != 0 {
		t.Error("ResetStats did not zero instructions")
	}
}

func TestExportNotFound(t *testing.T) {
	in := benchInstance(t)
	if _, err := in.Invoke("nope"); !errors.Is(err, ErrNoExport) {
		t.Errorf("want ErrNoExport, got %v", err)
	}
}

func TestBadArity(t *testing.T) {
	in := benchInstance(t)
	if _, err := in.Invoke("fib"); !errors.Is(err, ErrBadArity) {
		t.Errorf("want ErrBadArity, got %v", err)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	mb := NewModuleBuilder()
	fb := NewFuncBuilder("rem", 2, 1, 0)
	fb.LocalGet(0).LocalGet(1).I64RemS()
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := in.Invoke("rem", 10, 0); !errors.Is(err, ErrDivByZero) {
		t.Errorf("want ErrDivByZero, got %v", err)
	}
	res, err := in.Invoke("rem", 10, 3)
	if err != nil || res[0] != 1 {
		t.Errorf("rem(10,3) = %v, %v", res, err)
	}
}

func TestMemoryOOBTraps(t *testing.T) {
	mb := NewModuleBuilder().WithMemory(1)
	fb := NewFuncBuilder("poke", 1, 0, 0)
	fb.LocalGet(0).I64Const(1).I64Store(0)
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in, err := NewInstance(m)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := in.Invoke("poke", int64(PageSize)); !errors.Is(err, ErrOOB) {
		t.Errorf("want ErrOOB, got %v", err)
	}
	if _, err := in.Invoke("poke", -8); !errors.Is(err, ErrOOB) {
		t.Errorf("negative addr: want ErrOOB, got %v", err)
	}
	if _, err := in.Invoke("poke", 0); err != nil {
		t.Errorf("in-bounds store failed: %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	mb := NewModuleBuilder()
	fb := NewFuncBuilder("inf", 0, 0, 0)
	fb.Call(0)
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in, _ := NewInstance(m)
	if _, err := in.Invoke("inf"); !errors.Is(err, ErrCallDepth) {
		t.Errorf("want ErrCallDepth, got %v", err)
	}
}

func TestValidateRejectsBadLocal(t *testing.T) {
	m := &Module{
		Funcs:   []Func{{Name: "f", Params: 1, Results: 0, Code: []Instr{{Op: OpLocalGet, A: 5}, {Op: OpLocalSet}}}},
		exports: map[string]int{"f": 0},
	}
	if err := Validate(m); !errors.Is(err, ErrValidation) {
		t.Errorf("want ErrValidation, got %v", err)
	}
}

func TestValidateRejectsUnderflow(t *testing.T) {
	m := &Module{
		Funcs:   []Func{{Name: "f", Params: 0, Results: 0, Code: []Instr{{Op: OpI64Add}}}},
		exports: map[string]int{"f": 0},
	}
	if err := Validate(m); !errors.Is(err, ErrValidation) {
		t.Errorf("want ErrValidation, got %v", err)
	}
}

func TestValidateRejectsBadCallIndex(t *testing.T) {
	m := &Module{
		Funcs:   []Func{{Name: "f", Params: 0, Results: 0, Code: []Instr{{Op: OpCall, A: 3}}}},
		exports: map[string]int{"f": 0},
	}
	if err := Validate(m); !errors.Is(err, ErrValidation) {
		t.Errorf("want ErrValidation, got %v", err)
	}
}

func TestValidateRejectsResultMismatch(t *testing.T) {
	m := &Module{
		Funcs:   []Func{{Name: "f", Params: 0, Results: 1, Code: []Instr{{OpBlock, 2}, {OpEnd, 0}}}},
		exports: map[string]int{"f": 0},
	}
	if err := Validate(m); !errors.Is(err, ErrValidation) {
		t.Errorf("want ErrValidation, got %v", err)
	}
}

// TestValidateRejectsBadBranches: a branch may only target the label
// of an enclosing frame (a loop's own pc, the pc past a block's or an
// if's end) and must arrive at that frame's entry height; block, loop
// and if carry the targets of their own frame. A branch that jumped
// into code at another operand height used to pass NewInstance and
// then panic the host on the underflow.
func TestValidateRejectsBadBranches(t *testing.T) {
	cases := map[string][]Instr{
		"br outside any frame": {{OpBr, 3}, {OpI64Const, 1}, {OpI64Const, 2}, {OpI64Add, 0}, {OpLocalSet, 0}},
		"br_if into the middle of a block": {
			{OpBlock, 6}, {OpI64Const, 1}, {OpBrIf, 4}, {OpI64Const, 2}, {OpLocalSet, 0}, {OpEnd, 0},
		},
		"br with an operand left above the entry height": {
			{OpBlock, 4}, {OpI64Const, 1}, {OpBr, 4}, {OpEnd, 0},
		},
		"br_if to a loop that is no longer open": {
			{OpLoop, 0}, {OpEnd, 0}, {OpI64Const, 1}, {OpBrIf, 0},
		},
		"if that skips past its end": {
			{OpI64Const, 1}, {OpIf, 6}, {OpI64Const, 2}, {OpLocalSet, 0}, {OpEnd, 0}, {OpI64Const, 3}, {OpLocalSet, 0},
		},
		"if that jumps short of its end": {
			{OpI64Const, 1}, {OpIf, 3}, {OpI64Const, 2}, {OpLocalSet, 0}, {OpEnd, 0},
		},
		"loop with a target other than its own pc": {{OpLoop, 1}, {OpEnd, 0}},
		"block with a stale target":                {{OpBlock, 1}, {OpEnd, 0}},
	}
	for name, code := range cases {
		m := &Module{Funcs: []Func{{Name: "f", Locals: 1, Code: code}}, exports: map[string]int{"f": 0}}
		if _, err := NewInstance(m); !errors.Is(err, ErrValidation) {
			t.Errorf("%s: NewInstance = %v, want ErrValidation", name, err)
		}
	}
}

func TestValidateRejectsMemoryAccessWithoutMemory(t *testing.T) {
	mb := NewModuleBuilder() // no memory declared
	fb := NewFuncBuilder("f", 0, 1, 0)
	fb.I64Const(0).I64Load(0)
	mb.AddFunc(fb)
	if _, err := mb.Build(); !errors.Is(err, ErrValidation) {
		t.Errorf("want ErrValidation, got %v", err)
	}
}

func TestBuilderRejectsUnclosedFrame(t *testing.T) {
	mb := NewModuleBuilder()
	fb := NewFuncBuilder("f", 0, 0, 0)
	fb.Block() // never closed
	mb.AddFunc(fb)
	if _, err := mb.Build(); err == nil {
		t.Error("want error for unclosed frame")
	}
}

func TestF64Ops(t *testing.T) {
	mb := NewModuleBuilder()
	// hyp: sqrt(3²+4²) = 5 as f64 bits; hyp_trunc: trunc(5.5 * 2) = 11.
	fb := NewFuncBuilder("hyp", 0, 1, 0)
	fb.F64Const(3).F64Const(3).F64Mul().
		F64Const(4).F64Const(4).F64Mul().
		F64Add().F64Sqrt()
	mb.AddFunc(fb)
	fb = NewFuncBuilder("hyp_trunc", 0, 1, 0)
	fb.F64Const(5.5).F64Const(2).F64Mul().I64TruncF64S()
	mb.AddFunc(fb)
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in, _ := NewInstance(m)
	if got := math.Float64frombits(uint64(invoke1(t, in, "hyp"))); math.Abs(got-5) > 1e-12 {
		t.Errorf("hyp = %v, want 5", got)
	}
	if got := invoke1(t, in, "hyp_trunc"); got != 11 {
		t.Errorf("hyp_trunc = %d, want 11", got)
	}
}

func TestDisassemble(t *testing.T) {
	m, err := BuildBenchModule()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, f := range m.Funcs {
		out.WriteString(Disassemble(f))
	}
	for _, want := range []string{"func fib", "i64.const", "br_if", "local.get"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
	// Every pc appears exactly once per function.
	fib := m.Funcs[FnFib]
	dis := Disassemble(fib)
	if got := strings.Count(dis, "\n"); got != len(fib.Code)+1 {
		t.Errorf("fib disassembly has %d lines, want %d", got, len(fib.Code)+1)
	}
	if Disassemble(Func{Params: 0}) == "" {
		t.Error("anonymous func renders empty")
	}
}

// TestBenchModuleUsesEveryOp: the VM defines exactly the plain ops the
// bench module's code contains. An op that no bench function emits is
// an interpreter arm, a validator case and a builder method that no
// workload runs; delete it, or add the program that needs it.
func TestBenchModuleUsesEveryOp(t *testing.T) {
	m, err := BuildBenchModule()
	if err != nil {
		t.Fatal(err)
	}
	used := map[Op]bool{}
	for _, f := range m.Funcs {
		for _, ins := range f.Code {
			used[ins.Op] = true
		}
	}
	for op := Op(1); op != 0; op++ {
		_, named := opNames[op]
		plain := op <= OpI64TruncF64S
		if named != plain {
			t.Errorf("op %d: named %v, plain %v", op, named, plain)
		}
		if plain != used[op] {
			t.Errorf("%v: defined %v, emitted by the bench module %v", op, plain, used[op])
		}
	}
}
