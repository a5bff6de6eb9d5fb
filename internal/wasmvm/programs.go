package wasmvm

// This file assembles the benchmark programs ConfBench runs on the
// Wasm VM. They mirror the Wasmi Labs benchmark suite the paper uses
// (recursive and iterative fibonacci, a prime sieve, matrix multiply,
// gcd, modular exponentiation) extended — as the paper did — with
// cpustress and memstress.

// Function indices inside the module built by BuildBenchModule, in
// AddFunc order.
const (
	FnFib = iota
	FnFibIter
	FnSieve
	FnMatMul
	FnCPUStress
	FnMemStress
	FnGCD
	FnPowMod
)

// BenchMemPages is the linear memory of the bench module
// (4 MiB), enough for sieve limits up to ~4M and 128×128 matmul.
const BenchMemPages = 64

// BuildBenchModule assembles and validates the benchmark module.
func BuildBenchModule() (*Module, error) {
	mb := NewModuleBuilder().WithMemory(BenchMemPages)

	mb.AddFunc(buildFib())
	mb.AddFunc(buildFibIter())
	mb.AddFunc(buildSieve())
	mb.AddFunc(buildMatMul())
	mb.AddFunc(buildCPUStress())
	mb.AddFunc(buildMemStress())
	mb.AddFunc(buildGCD())
	mb.AddFunc(buildPowMod())

	return mb.Build()
}

// buildFib: fib(n) recursive — the classic interpreter stressor.
func buildFib() *FuncBuilder {
	fb := NewFuncBuilder("fib", 1, 1, 0)
	fb.LocalGet(0).I64Const(2).I64LtS().If().
		LocalGet(0).Return().
		End()
	fb.LocalGet(0).I64Const(1).I64Sub().Call(FnFib)
	fb.LocalGet(0).I64Const(2).I64Sub().Call(FnFib)
	fb.I64Add()
	return fb
}

// buildFibIter: fib_iter(n) with an explicit loop.
// locals: 1=a, 2=b, 3=i, 4=t
func buildFibIter() *FuncBuilder {
	fb := NewFuncBuilder("fib_iter", 1, 1, 4)
	fb.I64Const(0).LocalSet(1)
	fb.I64Const(1).LocalSet(2)
	fb.I64Const(0).LocalSet(3)
	fb.Block().Loop().
		LocalGet(3).LocalGet(0).I64GeS().BrIf(1).
		LocalGet(1).LocalGet(2).I64Add().LocalSet(4).
		LocalGet(2).LocalSet(1).
		LocalGet(4).LocalSet(2).
		LocalGet(3).I64Const(1).I64Add().LocalSet(3).
		Br(0).
		End().End()
	fb.LocalGet(1)
	return fb
}

// buildSieve: sieve(limit) counts primes ≤ limit using one byte per
// candidate in linear memory (0 = prime). The flags region is zeroed
// first so repeat invocations on one instance stay correct.
// locals: 1=i, 2=j, 3=count
func buildSieve() *FuncBuilder {
	fb := NewFuncBuilder("sieve", 1, 1, 3)
	// zero flags [0, limit]
	fb.I64Const(0).LocalSet(1)
	fb.Block().Loop().
		LocalGet(1).LocalGet(0).I64GtS().BrIf(1).
		LocalGet(1).I64Const(0).I64Store8(0).
		LocalGet(1).I64Const(1).I64Add().LocalSet(1).
		Br(0).
		End().End()
	// mark composites
	fb.I64Const(2).LocalSet(1)
	fb.Block().Loop().
		LocalGet(1).LocalGet(1).I64Mul().LocalGet(0).I64GtS().BrIf(1).
		LocalGet(1).I64Load8U(0).I64Eqz().If().
		LocalGet(1).LocalGet(1).I64Mul().LocalSet(2).
		Block().Loop().
		LocalGet(2).LocalGet(0).I64GtS().BrIf(1).
		LocalGet(2).I64Const(1).I64Store8(0).
		LocalGet(2).LocalGet(1).I64Add().LocalSet(2).
		Br(0).
		End().End().
		End().
		LocalGet(1).I64Const(1).I64Add().LocalSet(1).
		Br(0).
		End().End()
	// count primes
	fb.I64Const(2).LocalSet(1)
	fb.I64Const(0).LocalSet(3)
	fb.Block().Loop().
		LocalGet(1).LocalGet(0).I64GtS().BrIf(1).
		LocalGet(1).I64Load8U(0).I64Eqz().If().
		LocalGet(3).I64Const(1).I64Add().LocalSet(3).
		End().
		LocalGet(1).I64Const(1).I64Add().LocalSet(1).
		Br(0).
		End().End()
	fb.LocalGet(3)
	return fb
}

// buildMatMul: matmul(n) multiplies two n×n i64 matrices held in
// linear memory (A at 0, B at n²·8, C at 2n²·8) and returns C[n-1][n-1].
// locals: 1=i, 2=j, 3=k, 4=sum, 5=nn8 (n*8), 6=tmp
func buildMatMul() *FuncBuilder {
	fb := NewFuncBuilder("matmul", 1, 1, 6)
	const (
		lI, lJ, lK, lSum, lN8, lTmp = 1, 2, 3, 4, 5, 6
	)
	// n8 = n*8
	fb.LocalGet(0).I64Const(8).I64Mul().LocalSet(lN8)

	// initialize A[i] = i%7, B[i] = i%5 for i in [0, n*n)
	fb.I64Const(0).LocalSet(lI)
	fb.Block().Loop().
		LocalGet(lI).LocalGet(0).LocalGet(0).I64Mul().I64GeS().BrIf(1).
		// A[i]: addr = i*8
		LocalGet(lI).I64Const(8).I64Mul().
		LocalGet(lI).I64Const(7).I64RemS().
		I64Store(0).
		// B[i]: addr = n*n*8 + i*8
		LocalGet(0).LocalGet(0).I64Mul().I64Const(8).I64Mul().
		LocalGet(lI).I64Const(8).I64Mul().I64Add().
		LocalGet(lI).I64Const(5).I64RemS().
		I64Store(0).
		LocalGet(lI).I64Const(1).I64Add().LocalSet(lI).
		Br(0).
		End().End()

	// triple loop: C[i][j] = sum_k A[i][k]*B[k][j]
	fb.I64Const(0).LocalSet(lI)
	fb.Block().Loop().
		LocalGet(lI).LocalGet(0).I64GeS().BrIf(1).
		I64Const(0).LocalSet(lJ).
		Block().Loop().
		LocalGet(lJ).LocalGet(0).I64GeS().BrIf(1).
		I64Const(0).LocalSet(lK).
		I64Const(0).LocalSet(lSum).
		Block().Loop().
		LocalGet(lK).LocalGet(0).I64GeS().BrIf(1).
		// tmp = A[i*n+k] * B[k*n+j]
		LocalGet(lI).LocalGet(0).I64Mul().LocalGet(lK).I64Add().I64Const(8).I64Mul().
		I64Load(0).
		LocalGet(0).LocalGet(0).I64Mul().I64Const(8).I64Mul(). // B base
		LocalGet(lK).LocalGet(0).I64Mul().LocalGet(lJ).I64Add().I64Const(8).I64Mul().
		I64Add().
		I64Load(0).
		I64Mul().LocalSet(lTmp).
		LocalGet(lSum).LocalGet(lTmp).I64Add().LocalSet(lSum).
		LocalGet(lK).I64Const(1).I64Add().LocalSet(lK).
		Br(0).
		End().End().
		// C[i*n+j] = sum; C base = 2*n*n*8
		I64Const(2).LocalGet(0).I64Mul().LocalGet(0).I64Mul().I64Const(8).I64Mul().
		LocalGet(lI).LocalGet(0).I64Mul().LocalGet(lJ).I64Add().I64Const(8).I64Mul().
		I64Add().
		LocalGet(lSum).
		I64Store(0).
		LocalGet(lJ).I64Const(1).I64Add().LocalSet(lJ).
		Br(0).
		End().End().
		LocalGet(lI).I64Const(1).I64Add().LocalSet(lI).
		Br(0).
		End().End()

	// return C[(n-1)*n + (n-1)]
	fb.I64Const(2).LocalGet(0).I64Mul().LocalGet(0).I64Mul().I64Const(8).I64Mul().
		LocalGet(0).I64Const(1).I64Sub().LocalGet(0).I64Mul().
		LocalGet(0).I64Const(1).I64Sub().I64Add().
		I64Const(8).I64Mul().I64Add().
		I64Load(0)
	return fb
}

// buildCPUStress: cpustress(iters) runs a floating-point kernel —
// x = sqrt(x·x + 0.25) — and returns trunc(x·1000).
// locals: 1=i; x kept in f64 local 2 (as raw bits).
func buildCPUStress() *FuncBuilder {
	fb := NewFuncBuilder("cpustress", 1, 1, 2)
	fb.F64Const(1.5).LocalSet(2)
	fb.I64Const(0).LocalSet(1)
	fb.Block().Loop().
		LocalGet(1).LocalGet(0).I64GeS().BrIf(1).
		LocalGet(2).LocalGet(2).F64Mul().F64Const(0.25).F64Add().F64Sqrt().LocalSet(2).
		LocalGet(1).I64Const(1).I64Add().LocalSet(1).
		Br(0).
		End().End()
	fb.LocalGet(2).F64Const(1000).F64Mul().I64TruncF64S()
	return fb
}

// buildMemStress: memstress(bytes) sweeps linear memory with 64-bit
// stores then loads, returning a checksum. Clamped to memory size by
// the caller.
// locals: 1=i, 2=sum
func buildMemStress() *FuncBuilder {
	fb := NewFuncBuilder("memstress", 1, 1, 2)
	// store sweep
	fb.I64Const(0).LocalSet(1)
	fb.Block().Loop().
		LocalGet(1).I64Const(8).I64Add().LocalGet(0).I64GtS().BrIf(1).
		LocalGet(1).LocalGet(1).I64Const(2654435761).I64Mul().I64Store(0).
		LocalGet(1).I64Const(8).I64Add().LocalSet(1).
		Br(0).
		End().End()
	// load sweep
	fb.I64Const(0).LocalSet(1)
	fb.I64Const(0).LocalSet(2)
	fb.Block().Loop().
		LocalGet(1).I64Const(8).I64Add().LocalGet(0).I64GtS().BrIf(1).
		LocalGet(2).LocalGet(1).I64Load(0).I64Xor().LocalSet(2).
		LocalGet(1).I64Const(8).I64Add().LocalSet(1).
		Br(0).
		End().End()
	fb.LocalGet(2)
	return fb
}

// buildGCD: gcd(a, b) by Euclid's loop.
// locals: 2=t
func buildGCD() *FuncBuilder {
	fb := NewFuncBuilder("gcd", 2, 1, 1)
	fb.Block().Loop().
		LocalGet(1).I64Eqz().BrIf(1).
		LocalGet(1).LocalSet(2).
		LocalGet(0).LocalGet(1).I64RemS().LocalSet(1).
		LocalGet(2).LocalSet(0).
		Br(0).
		End().End()
	fb.LocalGet(0)
	return fb
}

// buildPowMod: powmod(base, exp, mod) by square-and-multiply.
// locals: 3=result
func buildPowMod() *FuncBuilder {
	fb := NewFuncBuilder("powmod", 3, 1, 1)
	fb.I64Const(1).LocalSet(3)
	fb.LocalGet(0).LocalGet(2).I64RemS().LocalSet(0)
	fb.Block().Loop().
		LocalGet(1).I64Const(0).I64LeS().BrIf(1).
		// if exp & 1: result = result*base % mod
		LocalGet(1).I64Const(1).I64And().I64Eqz().I64Eqz().If().
		LocalGet(3).LocalGet(0).I64Mul().LocalGet(2).I64RemS().LocalSet(3).
		End().
		// base = base*base % mod; exp >>= 1
		LocalGet(0).LocalGet(0).I64Mul().LocalGet(2).I64RemS().LocalSet(0).
		LocalGet(1).I64Const(1).I64ShrS().LocalSet(1).
		Br(0).
		End().End()
	fb.LocalGet(3)
	return fb
}
