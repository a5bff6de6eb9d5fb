package minidb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"confbench/internal/meter"
)

// openDurable mounts a fresh database on a DurableBackend in dir.
func openDurable(t *testing.T, dir string) (*Database, *DurableBackend) {
	t.Helper()
	b, err := NewDurableBackend(dir)
	if err != nil {
		t.Fatalf("NewDurableBackend: %v", err)
	}
	db, err := NewWithBackend(b)
	if err != nil {
		t.Fatalf("NewWithBackend: %v", err)
	}
	return db, b
}

func execD(t *testing.T, db *Database, sql string) *ResultSet {
	t.Helper()
	rs, err := db.Exec(meter.NewContext(), sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return rs
}

func TestDurableCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, b := openDurable(t, dir)
	execD(t, db, "CREATE TABLE t(a INTEGER, b TEXT)")
	execD(t, db, "CREATE INDEX ia ON t(a)")
	execD(t, db, "BEGIN")
	for i := 1; i <= 50; i++ {
		execD(t, db, fmt.Sprintf("INSERT INTO t VALUES(%d,'row %d')", i, i))
	}
	execD(t, db, "COMMIT")
	execD(t, db, "UPDATE t SET b = 'patched' WHERE a = 7")
	execD(t, db, "DELETE FROM t WHERE a = 50")
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, b2 := openDurable(t, dir)
	defer b2.Close()
	n, err := db2.RowCount("t")
	if err != nil || n != 49 {
		t.Fatalf("RowCount after reopen = %d, %v; want 49", n, err)
	}
	rs := execD(t, db2, "SELECT b FROM t WHERE a = 7")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "patched" {
		t.Fatalf("recovered row 7 = %+v, want 'patched'", rs.Rows)
	}
	if rs := execD(t, db2, "SELECT a FROM t WHERE a = 50"); len(rs.Rows) != 0 {
		t.Fatalf("deleted row 50 resurrected: %+v", rs.Rows)
	}
	// The recovered index answers point queries.
	rs = execD(t, db2, "SELECT count(*) FROM t WHERE a = 10")
	if rs.Rows[0][0].Int != 1 {
		t.Fatalf("indexed count after reopen = %d, want 1", rs.Rows[0][0].Int)
	}
	// The recovered database keeps allocating fresh rowids.
	execD(t, db2, "INSERT INTO t VALUES(100,'new')")
	if n, _ := db2.RowCount("t"); n != 50 {
		t.Fatalf("RowCount after post-recovery insert = %d, want 50", n)
	}
}

func TestDurableRollbackDiscardsUncommitted(t *testing.T) {
	dir := t.TempDir()
	db, b := openDurable(t, dir)
	execD(t, db, "CREATE TABLE t(a INTEGER)")
	execD(t, db, "INSERT INTO t VALUES(1)")
	execD(t, db, "BEGIN")
	execD(t, db, "INSERT INTO t VALUES(2)")
	execD(t, db, "UPDATE t SET a = 99 WHERE a = 1")
	execD(t, db, "ROLLBACK")
	b.Close()

	db2, b2 := openDurable(t, dir)
	defer b2.Close()
	rs := execD(t, db2, "SELECT a FROM t")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 1 {
		t.Fatalf("recovered rows = %+v, want the single pre-txn row 1", rs.Rows)
	}
}

func TestDurableDDLInRolledBackTxnPersists(t *testing.T) {
	// The operation-level undo log does not undo DDL: a table created
	// inside a rolled-back transaction stays in the catalog, so it
	// must also stay durable or recovery would diverge.
	dir := t.TempDir()
	db, b := openDurable(t, dir)
	execD(t, db, "BEGIN")
	execD(t, db, "CREATE TABLE kept(a INTEGER)")
	execD(t, db, "INSERT INTO kept VALUES(1)")
	execD(t, db, "ROLLBACK")
	if _, err := db.Exec(meter.NewContext(), "INSERT INTO kept VALUES(2)"); err != nil {
		t.Fatalf("insert into kept-after-rollback table: %v", err)
	}
	b.Close()

	db2, b2 := openDurable(t, dir)
	defer b2.Close()
	rs := execD(t, db2, "SELECT a FROM kept")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 2 {
		t.Fatalf("recovered kept rows = %+v, want only the post-rollback row 2", rs.Rows)
	}
}

func TestDurableDropTableRemovesState(t *testing.T) {
	dir := t.TempDir()
	db, b := openDurable(t, dir)
	execD(t, db, "CREATE TABLE gone(a INTEGER)")
	execD(t, db, "CREATE INDEX ig ON gone(a)")
	execD(t, db, "INSERT INTO gone VALUES(1)")
	execD(t, db, "CREATE TABLE stays(a INTEGER)")
	execD(t, db, "INSERT INTO stays VALUES(7)")
	execD(t, db, "DROP TABLE gone")
	b.Close()

	db2, b2 := openDurable(t, dir)
	defer b2.Close()
	var names []string
	for name := range db2.tables {
		names = append(names, name)
	}
	if len(names) != 1 || names[0] != "stays" {
		t.Fatalf("recovered tables = %v, want [stays]", names)
	}
	rs := execD(t, db2, "SELECT a FROM stays")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 7 {
		t.Fatalf("recovered stays rows = %+v", rs.Rows)
	}
}

func TestDurableTornTailRecoversCommittedRows(t *testing.T) {
	dir := t.TempDir()
	db, b := openDurable(t, dir)
	execD(t, db, "CREATE TABLE t(a INTEGER)")
	execD(t, db, "BEGIN")
	for i := 1; i <= 20; i++ {
		execD(t, db, fmt.Sprintf("INSERT INTO t VALUES(%d)", i))
	}
	execD(t, db, "COMMIT")
	// A crash mid-append leaves a torn record at the log tail.
	if err := b.log.CorruptTailForTest([]byte{0x01, 0x02, 0x03, 0x04, 0x05}); err != nil {
		t.Fatalf("CorruptTailForTest: %v", err)
	}
	b.Close()

	db2, b2 := openDurable(t, dir)
	defer b2.Close()
	if !b2.Stats().TruncatedTail {
		t.Fatal("reopen did not report the torn tail")
	}
	if n, _ := db2.RowCount("t"); n != 20 {
		t.Fatalf("RowCount after torn-tail recovery = %d, want 20", n)
	}
}

// corruptNewestSegment appends garbage to the newest log segment file —
// what a crash mid-append leaves on disk. Recovery must truncate the
// torn tail, not fail.
func corruptNewestSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\xde\xad\xbe\xef torn half-record")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashKeepsBothCommittedBatches is the end-to-end crash
// check (formerly the minidb half of the root durability smoke): an
// autocommitted batch and an explicit transaction, a crash leaving a
// torn half-record in the segment file, reopen — zero committed rows
// lost, none resurrected, and the recovered database keeps committing.
func TestDurableCrashKeepsBothCommittedBatches(t *testing.T) {
	dir := t.TempDir()
	db, b := openDurable(t, dir)
	execD(t, db, "CREATE TABLE smoke(a INTEGER, b TEXT)")
	for i := 1; i <= 30; i++ { // batch 1: autocommitted single statements
		execD(t, db, fmt.Sprintf("INSERT INTO smoke VALUES(%d,'batch1 %d')", i, i))
	}
	execD(t, db, "BEGIN") // batch 2: one explicit transaction
	for i := 31; i <= 50; i++ {
		execD(t, db, fmt.Sprintf("INSERT INTO smoke VALUES(%d,'batch2 %d')", i, i))
	}
	execD(t, db, "COMMIT")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	corruptNewestSegment(t, dir)

	db2, b2 := openDurable(t, dir)
	defer b2.Close()
	if !b2.Stats().TruncatedTail {
		t.Fatal("recovery did not report the truncated tail")
	}
	if n, err := db2.RowCount("smoke"); err != nil || n != 50 {
		t.Fatalf("recovered rows = %d, %v; want exactly the 50 committed", n, err)
	}
	if rs := execD(t, db2, "SELECT b FROM smoke WHERE a = 42"); len(rs.Rows) != 1 || rs.Rows[0][0].Str != "batch2 42" {
		t.Fatalf("recovered row 42 = %+v", rs)
	}
	execD(t, db2, "INSERT INTO smoke VALUES(51,'after crash')")
	if n, _ := db2.RowCount("smoke"); n != 51 {
		t.Fatalf("rows after post-recovery insert = %d, want 51", n)
	}
}

func TestDurableVsMemoryMeteredCostsDiffer(t *testing.T) {
	run := func(backend Backend) *meter.Context {
		m := meter.NewContext()
		db, err := NewWithBackend(backend)
		if err != nil {
			t.Fatalf("NewWithBackend: %v", err)
		}
		mustExec := func(sql string) {
			if _, err := db.Exec(m, sql); err != nil {
				t.Fatalf("Exec(%q): %v", sql, err)
			}
		}
		mustExec("CREATE TABLE t(a INTEGER, b TEXT)")
		mustExec("BEGIN")
		for i := 1; i <= 100; i++ {
			mustExec(fmt.Sprintf("INSERT INTO t VALUES(%d,'payload %d')", i, i))
		}
		mustExec("COMMIT")
		return m
	}
	mem := run(nil)
	b, err := NewDurableBackend(t.TempDir())
	if err != nil {
		t.Fatalf("NewDurableBackend: %v", err)
	}
	defer b.Close()
	dur := run(b)

	// The durable run pays write amplification (record headers,
	// checksums, key bytes) over the logical dirty volume.
	if dur.Get(meter.IOWriteBytes) <= mem.Get(meter.IOWriteBytes) {
		t.Errorf("durable IOWriteBytes %d not above memory %d",
			dur.Get(meter.IOWriteBytes), mem.Get(meter.IOWriteBytes))
	}
	// And the per-commit fsync pairs add syscalls.
	if dur.Get(meter.Syscalls) <= mem.Get(meter.Syscalls) {
		t.Errorf("durable Syscalls %d not above memory %d",
			dur.Get(meter.Syscalls), mem.Get(meter.Syscalls))
	}
}

// TestVacuumRespectsPageCache is the metered-cost regression test for
// the vacuum double-pricing bug: every heap page built by inserts is
// page-cache resident, so VACUUM's read pass must price them as memory
// traffic (as scan does), not charge storage reads again.
func TestVacuumRespectsPageCache(t *testing.T) {
	db := New()
	m := meter.NewContext()
	mustExec := func(sql string) *ResultSet {
		rs, err := db.Exec(m, sql)
		if err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
		return rs
	}
	mustExec("CREATE TABLE t(a INTEGER, b TEXT)")
	for i := 1; i <= 200; i++ {
		mustExec(fmt.Sprintf("INSERT INTO t VALUES(%d,'some text payload %d')", i, i))
	}
	mustExec("DELETE FROM t WHERE a BETWEEN 1 AND 50")

	readsBefore := m.Get(meter.IOReadBytes)
	touchedBefore := m.Get(meter.BytesTouched)
	rs := mustExec("VACUUM")
	if rs.Affected != 50 {
		t.Fatalf("VACUUM reclaimed %d, want 50", rs.Affected)
	}
	if delta := m.Get(meter.IOReadBytes) - readsBefore; delta != 0 {
		t.Errorf("VACUUM charged %d bytes of storage reads for page-cache-resident pages, want 0", delta)
	}
	if m.Get(meter.BytesTouched) == touchedBefore {
		t.Error("VACUUM's read pass metered no memory traffic at all")
	}
}

func TestSpeedTestRunsOnDurableBackend(t *testing.T) {
	b, err := NewDurableBackend(t.TempDir())
	if err != nil {
		t.Fatalf("NewDurableBackend: %v", err)
	}
	defer b.Close()
	st := NewSpeedTest(10)
	st.Backend = b
	mDur := meter.NewContext()
	results, err := st.Run(mDur)
	if err != nil {
		t.Fatalf("durable speedtest: %v", err)
	}
	mMem := meter.NewContext()
	memResults, err := NewSpeedTest(10).Run(mMem)
	if err != nil {
		t.Fatalf("memory speedtest: %v", err)
	}
	// Same deterministic workload either way...
	if len(results) != len(memResults) {
		t.Fatalf("durable ran %d tests, memory %d", len(results), len(memResults))
	}
	for i := range results {
		if results[i] != memResults[i] {
			t.Fatalf("test %d diverged: durable %+v, memory %+v", i, results[i], memResults[i])
		}
	}
	// ...but distinct metered I/O cost.
	if mDur.Get(meter.IOWriteBytes) <= mMem.Get(meter.IOWriteBytes) {
		t.Errorf("durable speedtest IOWriteBytes %d not above memory %d",
			mDur.Get(meter.IOWriteBytes), mMem.Get(meter.IOWriteBytes))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null()},
		{Int(-5), Real(3.25), Text(""), Text("héllo\x00world"), Null()},
		{Int(1 << 62)},
	}
	for _, r := range rows {
		got, err := decodeRow(encodeRow(r))
		if err != nil {
			t.Fatalf("decodeRow(%+v): %v", r, err)
		}
		if len(got) != len(r) {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
		for i := range r {
			if got[i].IsNull() != r[i].IsNull() {
				t.Fatalf("round trip %+v -> %+v", r, got)
			}
			if !r[i].IsNull() && !Equal(got[i], r[i]) {
				t.Fatalf("round trip %+v -> %+v", r, got)
			}
		}
	}
	cols := []ColDef{{Name: "a", Type: TypeInt}, {Name: "long name", Type: TypeText}}
	gotCols, err := decodeSchema(encodeSchema(cols))
	if err != nil {
		t.Fatalf("decodeSchema: %v", err)
	}
	if len(gotCols) != 2 || gotCols[0] != cols[0] || gotCols[1] != cols[1] {
		t.Fatalf("schema round trip %+v -> %+v", cols, gotCols)
	}
	if _, err := decodeRow([]byte{0}); err == nil {
		t.Error("decodeRow accepted a truncated record")
	}
	if _, err := decodeSchema([]byte{9}); err == nil {
		t.Error("decodeSchema accepted a truncated record")
	}
}
