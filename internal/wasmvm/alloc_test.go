//go:build !race

package wasmvm

import "testing"

// TestInvokeAllocations: a call frame costs no heap allocation, so an
// invoke allocates its operand stack and its result slice however many
// calls it makes (fib(15) makes 1 973; the parent of ISSUE 24
// allocated twice per call).
func TestInvokeAllocations(t *testing.T) {
	in := benchInstance(t)
	got := testing.AllocsPerRun(10, func() {
		in.Fuel = DefaultFuel
		if _, err := in.Invoke("fib", 15); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("Invoke(fib, 15): %.0f allocations, ceiling 4", got)
	}
}
