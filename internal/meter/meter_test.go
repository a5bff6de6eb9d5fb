package meter

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterNames(t *testing.T) {
	for _, c := range AllCounters() {
		if c.String() == "" || strings.HasPrefix(c.String(), "counter(") {
			t.Errorf("counter %d has no name", c)
		}
	}
	if got := Counter(999).String(); got != "counter(999)" {
		t.Errorf("unknown counter name = %q", got)
	}
}

func TestAllCountersSortedAndComplete(t *testing.T) {
	cs := AllCounters()
	if len(cs) != 13 {
		t.Fatalf("AllCounters returned %d counters, want 13", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Errorf("counters not strictly sorted at %d", i)
		}
	}
}

func TestAddAndGet(t *testing.T) {
	m := NewContext()
	m.Add(CPUOps, 10)
	m.Add(CPUOps, 5)
	if got := m.Get(CPUOps); got != 15 {
		t.Errorf("Get = %d, want 15", got)
	}
}

func TestNegativeAddIgnored(t *testing.T) {
	m := NewContext()
	m.Add(CPUOps, -5)
	m.Add(CPUOps, 0)
	if got := m.Get(CPUOps); got != 0 {
		t.Errorf("negative/zero adds should be ignored, got %d", got)
	}
}

func TestHelperMethods(t *testing.T) {
	m := NewContext()
	m.CPU(1)
	m.FP(2)
	m.Alloc(100)
	m.Touch(50)
	m.ReadIO(200)
	m.WriteIO(300)
	m.Syscall(4)
	m.Log(3)
	m.FileOp(2)
	m.Spawn(1)
	m.Switch(5)
	m.Fault(6)

	u := m.Snapshot()
	checks := map[Counter]uint64{
		CPUOps:          1,
		FPOps:           2,
		BytesAllocated:  100,
		BytesTouched:    150, // alloc also touches
		IOReadBytes:     200,
		IOWriteBytes:    300,
		LogLines:        3,
		FileOps:         2,
		ProcessSpawns:   1,
		ContextSwitches: 5,
		PageFaults:      6,
		// read + write + 4 explicit + 3 log + 2 fileop + 3 spawn = 14
		Syscalls: 14,
	}
	for c, want := range checks {
		if got := u.Get(c); got != want {
			t.Errorf("%s = %d, want %d", c, got, want)
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := NewContext()
	m.CPU(1)
	u := m.Snapshot()
	m.CPU(100)
	if u.Get(CPUOps) != 1 {
		t.Error("snapshot mutated by later additions")
	}
}

func TestReset(t *testing.T) {
	m := NewContext()
	m.CPU(10)
	m.Reset()
	if m.Get(CPUOps) != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestMerge(t *testing.T) {
	m := NewContext()
	m.CPU(10)
	m.Merge(Usage{CPUOps: 5, FPOps: 7})
	if m.Get(CPUOps) != 15 || m.Get(FPOps) != 7 {
		t.Errorf("merge result cpu=%d fp=%d", m.Get(CPUOps), m.Get(FPOps))
	}
}

// A Counter outside the defined range has no slot in the Context: it
// is dropped like a negative increment and never reaches a Snapshot.
// Slot 0 of a Usage belongs to no counter: it reads as 0 and every
// write path drops it.
func TestUnknownCounterIgnored(t *testing.T) {
	m := NewContext()
	m.CPU(3)
	stray := Usage{0: 7, CPUOps: 1}
	for _, c := range []Counter{-1, 0, numCounters, 999} {
		m.Add(c, 5)
		if got := m.Get(c); got != 0 {
			t.Errorf("Get(%d) = %d, want 0", int(c), got)
		}
		if got := stray.Get(c); got != 0 {
			t.Errorf("Usage.Get(%d) = %d, want 0", int(c), got)
		}
	}
	m.Merge(stray)
	if u := m.Snapshot(); u != (Usage{CPUOps: 4}) {
		t.Errorf("snapshot = %v, want only cpu-ops=4", u)
	}
	if sum := stray.Add(stray).Scale(1); sum != (Usage{CPUOps: 2}) || stray.String() != "cpu-ops=1" {
		t.Errorf("slot 0 leaked: Add+Scale = %v, String = %q", sum, stray.String())
	}
	if !(Usage{0: 7}).IsZero() || stray.IsZero() {
		t.Error("IsZero must ignore slot 0 and see cpu-ops")
	}
}

func TestSnapshotOmitsZero(t *testing.T) {
	m := NewContext()
	m.Merge(Usage{CPUOps: 0})
	m.FP(2)
	m.Add(Syscalls, 0)
	if u := m.Snapshot(); u != (Usage{FPOps: 2}) || u.String() != "fp-ops=2" {
		t.Errorf("snapshot = %v, want only fp-ops", u)
	}
	m.Reset()
	if u := m.Snapshot(); !u.IsZero() {
		t.Errorf("snapshot after Reset = %v, want empty", u)
	}
}

func TestConcurrentAdd(t *testing.T) {
	m := NewContext()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.CPU(1)
			}
		}()
	}
	wg.Wait()
	if got := m.Get(CPUOps); got != 8000 {
		t.Errorf("concurrent adds lost updates: %d, want 8000", got)
	}
}

func TestUsageAdd(t *testing.T) {
	a := Usage{CPUOps: 1, FPOps: 2}
	b := Usage{CPUOps: 10, Syscalls: 3}
	sum := a.Add(b)
	if sum.Get(CPUOps) != 11 || sum.Get(FPOps) != 2 || sum.Get(Syscalls) != 3 {
		t.Errorf("Add = %v", sum)
	}
	// Inputs untouched.
	if a.Get(CPUOps) != 1 || b.Get(CPUOps) != 10 {
		t.Error("Add mutated inputs")
	}
}

func TestUsageScale(t *testing.T) {
	u := Usage{CPUOps: 100}
	if got := u.Scale(2.5).Get(CPUOps); got != 250 {
		t.Errorf("Scale(2.5) = %d", got)
	}
	if got := u.Scale(-1).Get(CPUOps); got != 0 {
		t.Errorf("negative scale = %d, want 0", got)
	}
}

func TestUsageAddCommutative(t *testing.T) {
	f := func(a1, a2, b1, b2 uint32) bool {
		a := Usage{CPUOps: uint64(a1), FPOps: uint64(a2)}
		b := Usage{CPUOps: uint64(b1), Syscalls: uint64(b2)}
		ab, ba := a.Add(b), b.Add(a)
		for _, c := range AllCounters() {
			if ab.Get(c) != ba.Get(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUsageString(t *testing.T) {
	u := Usage{CPUOps: 5, Syscalls: 2}
	s := u.String()
	if s != "cpu-ops=5 syscalls=2" {
		t.Errorf("String = %q", s)
	}
	if (Usage{}).String() != "" {
		t.Error("empty usage should render empty")
	}
}

// BenchmarkMeterAdd: one op is 10 000 Add calls, the order of a
// block-I/O body (dd at the guest-mix scale makes ~19 000), cycling
// over the counters, on a fresh Context as every invoke has.
func BenchmarkMeterAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewContext()
		for j := 0; j < 10_000; j++ {
			m.Add(Counter(1+j%int(numCounters-1)), 1)
		}
	}
}
