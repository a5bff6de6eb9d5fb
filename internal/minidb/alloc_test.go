//go:build !race

package minidb

import (
	"testing"

	"confbench/internal/meter"
)

// TestPreparedInsertAllocations: a bound INSERT into an indexed table,
// inside a transaction as the suite runs it, allocates the row and the
// ResultSet and nothing else (the column ordinals live on the stack;
// heap pages, B-tree nodes and the undo log grow amortised).
func TestPreparedInsertAllocations(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t2(a INTEGER, b INTEGER, c TEXT)")
	exec(t, db, "CREATE INDEX i2b ON t2(b)")
	exec(t, db, "BEGIN")
	p, err := prepare("INSERT INTO t2 VALUES(?,?,?)")
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NewContext()
	name := Text("one hundred twenty three")
	i := int64(0)
	got := testing.AllocsPerRun(2000, func() {
		i++
		if _, err := db.execPrepared(m, p, Int(i), Int(i*3), name); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Errorf("a prepared INSERT step allocates %.0f times, want ≤ 2", got)
	}
}

// TestSpeedTestAllocations: the whole suite at size 20 read 107 120
// allocations when every row was a fresh fmt.Sprintf'd statement lexed
// and parsed again; preparing the loop statements once and binding per
// row brings it to about 16 000.
func TestSpeedTestAllocations(t *testing.T) {
	got := testing.AllocsPerRun(1, func() {
		if _, err := NewSpeedTest(20).Run(meter.NewContext()); err != nil {
			t.Fatal(err)
		}
	})
	if got > 18000 {
		t.Errorf("NewSpeedTest(20).Run allocates %.0f times, want ≤ 18 000", got)
	}
}
