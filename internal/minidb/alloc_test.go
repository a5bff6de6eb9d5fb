//go:build !race

package minidb

import (
	"fmt"
	"os"
	"strconv"
	"strings"
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

// TestDurableSpeedtestSyscallCeiling pins the read and write syscalls
// of the size-20 suite on the durable backend, from syscr and syscw of
// /proc/self/io (the whole process). The log writes each commit
// point's records in one write and each compacted segment in one, and
// reads a segment whole to compact it: 46 commit points and one VACUUM
// come to about 48 writes and 5 reads. One write and one read per
// record read about 15 400 and 7 300.
func TestDurableSpeedtestSyscallCeiling(t *testing.T) {
	if _, err := readSyscalls(); err != nil {
		t.Skipf("no per-process syscall counts: %v", err)
	}
	b, err := NewDurableBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	st := NewSpeedTest(20)
	st.Backend = b
	m := meter.NewContext()
	before, err := readSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(m); err != nil {
		t.Fatal(err)
	}
	after, err := readSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := after[0]-before[0], after[1]-before[1]
	t.Logf("durable speedtest(20): %d reads, %d writes; metered %v", reads, writes, m.Snapshot())
	if reads > 16 || writes > 64 {
		t.Errorf("the durable size-20 suite makes %d reads and %d writes, want at most 16 and 64", reads, writes)
	}
}

// TestDurableReopenSyscallCeiling pins the read syscalls of reopening
// a durable database of 500 rows and loading it: Open reads each
// segment whole, and Load (Log.Range) reads each segment that holds a
// live record once more, so it comes to a handful. One read per live
// record read 3 to open and 503 to load.
func TestDurableReopenSyscallCeiling(t *testing.T) {
	if _, err := readSyscalls(); err != nil {
		t.Skipf("no per-process syscall counts: %v", err)
	}
	dir := t.TempDir()
	b, err := NewDurableBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewWithBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, "CREATE TABLE t(a INTEGER, b TEXT)")
	exec(t, db, "BEGIN")
	for i := 1; i <= 500; i++ {
		exec(t, db, fmt.Sprintf("INSERT INTO t VALUES(%d,'row %d')", i, i))
	}
	exec(t, db, "COMMIT")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	before, err := readSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewDurableBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	db, err = NewWithBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	after, err := readSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.RowCount("t"); err != nil || n != 500 {
		t.Fatalf("RowCount after reopen = %d, %v; want 500", n, err)
	}
	reads := after[0] - before[0]
	t.Logf("reopening and loading 500 rows: %d reads", reads)
	if reads > 8 {
		t.Errorf("reopening and loading 500 rows makes %d reads, want at most 8", reads)
	}
}

// readSyscalls returns syscr and syscw of /proc/self/io: the read and
// write syscalls the process has made.
func readSyscalls() ([2]uint64, error) {
	var out [2]uint64
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return out, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, value, _ := strings.Cut(line, ": ")
		for j, want := range []string{"syscr", "syscw"} {
			if name != want {
				continue
			}
			if out[j], err = strconv.ParseUint(value, 10, 64); err != nil {
				return out, err
			}
			found++
		}
	}
	if found != 2 {
		return out, fmt.Errorf("syscr or syscw missing from /proc/self/io")
	}
	return out, nil
}
