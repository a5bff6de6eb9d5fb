//go:build !race

package meter

import "testing"

// TestSnapshotAllocatesNothing: a Usage is a value, so taking one off
// a Context copies an array and touches no heap.
func TestSnapshotAllocatesNothing(t *testing.T) {
	m := NewContext()
	m.CPU(100)
	m.WriteIO(4096)
	var u Usage
	if got := testing.AllocsPerRun(1000, func() { u = m.Snapshot() }); got != 0 {
		t.Errorf("Snapshot allocates %.0f times, want 0", got)
	}
	if u.Get(CPUOps) != 100 {
		t.Errorf("snapshot = %v", u)
	}
}
