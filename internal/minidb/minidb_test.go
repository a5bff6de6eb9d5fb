package minidb

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"confbench/internal/meter"
)

// exec is a test helper failing fast on error.
func exec(t *testing.T, db *Database, sql string) *ResultSet {
	t.Helper()
	rs, err := db.Exec(meter.NewContext(), sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return rs
}

func seedTable(t *testing.T, db *Database) {
	t.Helper()
	exec(t, db, "CREATE TABLE users(id INTEGER, name TEXT, score INTEGER)")
	exec(t, db, "INSERT INTO users VALUES (1, 'alice', 95)")
	exec(t, db, "INSERT INTO users VALUES (2, 'bob', 70)")
	exec(t, db, "INSERT INTO users VALUES (3, 'carol', 82)")
}

func TestCreateInsertSelect(t *testing.T) {
	db := New()
	seedTable(t, db)
	rs := exec(t, db, "SELECT id, name FROM users WHERE id = 2")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][0].Int != 2 || rs.Rows[0][1].Str != "bob" {
		t.Errorf("row = %v", rs.Rows[0])
	}
	if rs.Cols[0] != "id" || rs.Cols[1] != "name" {
		t.Errorf("cols = %v", rs.Cols)
	}
}

func TestWhereOperators(t *testing.T) {
	db := New()
	seedTable(t, db)
	cases := []struct {
		where string
		want  int
	}{
		{"id = 1", 1},
		{"id BETWEEN 1 AND 2", 2},
		{"id BETWEEN 3 AND 1", 0},
		{"score BETWEEN 80 AND 100", 2},
		{"name = 'alice'", 1},
		{"name LIKE 'a%'", 1},
		{"name LIKE '%o%'", 2},
		{"name LIKE '_ob'", 1},
		{"id + 1 = 3", 1},
		{"id + id + 1 = 7", 1},
		{"name + 'x' = 'bobx'", 1},
	}
	for _, c := range cases {
		rs := exec(t, db, "SELECT id FROM users WHERE "+c.where)
		if len(rs.Rows) != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, len(rs.Rows), c.want)
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := New()
	seedTable(t, db)
	rs := exec(t, db, "SELECT name FROM users ORDER BY score DESC")
	if rs.Rows[0][0].Str != "alice" || rs.Rows[2][0].Str != "bob" {
		t.Errorf("order = %v", rs.Rows)
	}
	rs = exec(t, db, "SELECT name FROM users ORDER BY score LIMIT 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str != "bob" {
		t.Errorf("limited order = %v", rs.Rows)
	}
	rs = exec(t, db, "SELECT name FROM users LIMIT 0")
	if len(rs.Rows) != 0 {
		t.Errorf("LIMIT 0 returned rows")
	}
}

func TestAggregates(t *testing.T) {
	db := New()
	seedTable(t, db)
	rs := exec(t, db, "SELECT count(*), sum(id), avg(score), min(score), max(score) FROM users")
	row := rs.Rows[0]
	if row[0].Int != 3 || row[1].Int != 6 {
		t.Errorf("count/sum = %v/%v", row[0], row[1])
	}
	if row[2].Real < 82.33 || row[2].Real > 82.34 {
		t.Errorf("avg = %v", row[2])
	}
	if row[3].Int != 70 || row[4].Int != 95 {
		t.Errorf("min/max = %v/%v", row[3], row[4])
	}
}

func TestAggregatesOverEmptySet(t *testing.T) {
	db := New()
	seedTable(t, db)
	rs := exec(t, db, "SELECT count(*), sum(id), avg(id) FROM users WHERE id = 100")
	row := rs.Rows[0]
	if row[0].Int != 0 {
		t.Errorf("count = %v", row[0])
	}
	if !row[1].IsNull() || !row[2].IsNull() {
		t.Errorf("sum/avg over empty set should be NULL: %v %v", row[1], row[2])
	}
}

func TestUpdate(t *testing.T) {
	db := New()
	seedTable(t, db)
	rs := exec(t, db, "UPDATE users SET score = score + 1 WHERE id BETWEEN 1 AND 2")
	if rs.Affected != 2 {
		t.Errorf("affected = %d", rs.Affected)
	}
	check := exec(t, db, "SELECT score FROM users WHERE id = 1")
	if check.Rows[0][0].Int != 96 {
		t.Errorf("score after update = %v", check.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := New()
	seedTable(t, db)
	rs := exec(t, db, "DELETE FROM users WHERE id = 2")
	if rs.Affected != 1 {
		t.Errorf("affected = %d", rs.Affected)
	}
	if n, _ := db.RowCount("users"); n != 2 {
		t.Errorf("rows = %d", n)
	}
	// Deleting everything.
	exec(t, db, "DELETE FROM users")
	if n, _ := db.RowCount("users"); n != 0 {
		t.Errorf("rows after full delete = %d", n)
	}
}

func TestIndexEquivalence(t *testing.T) {
	// The same queries must return identical results with and without
	// an index (the index is an optimization, not a semantic change).
	build := func(withIndex bool) *Database {
		db := New()
		exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER)")
		if withIndex {
			exec(t, db, "CREATE INDEX ib ON t(b)")
		}
		for i := 0; i < 200; i++ {
			exec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*7%50))
		}
		return db
	}
	plain, indexed := build(false), build(true)
	queries := []string{
		"SELECT count(*) FROM t WHERE b = 21",
		"SELECT count(*) FROM t WHERE b BETWEEN 10 AND 20",
		"SELECT count(*) FROM t WHERE b BETWEEN 40 AND 49",
		"SELECT count(*) FROM t WHERE b BETWEEN 0 AND 4",
		"SELECT count(*) FROM t WHERE b BETWEEN 'a' AND 'z'",
		"SELECT sum(a) FROM t WHERE b = 0",
		"SELECT count(*) FROM t WHERE b + 0 = 21",
	}
	for _, q := range queries {
		p := exec(t, plain, q)
		i := exec(t, indexed, q)
		if p.Rows[0][0] != i.Rows[0][0] {
			t.Errorf("%s: plain %v != indexed %v", q, p.Rows[0][0], i.Rows[0][0])
		}
	}
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER)")
	exec(t, db, "CREATE INDEX ib ON t(b)")
	for i := 0; i < 50; i++ {
		exec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%10))
	}
	exec(t, db, "UPDATE t SET b = 99 WHERE a BETWEEN 0 AND 4")
	exec(t, db, "DELETE FROM t WHERE b = 1")

	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 99").Rows[0][0].Int; got != 5 {
		t.Errorf("b=99 count = %d, want 5", got)
	}
	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 1").Rows[0][0].Int; got != 0 {
		t.Errorf("b=1 count = %d, want 0", got)
	}
}

func TestTransactionCommit(t *testing.T) {
	db := New()
	seedTable(t, db)
	exec(t, db, "BEGIN")
	exec(t, db, "INSERT INTO users VALUES (4, 'dave', 50)")
	exec(t, db, "COMMIT")
	if n, _ := db.RowCount("users"); n != 4 {
		t.Errorf("rows after commit = %d", n)
	}
}

func TestTransactionRollback(t *testing.T) {
	db := New()
	seedTable(t, db)
	exec(t, db, "BEGIN")
	exec(t, db, "INSERT INTO users VALUES (4, 'dave', 50)")
	exec(t, db, "UPDATE users SET name = 'ALICE' WHERE id = 1")
	exec(t, db, "DELETE FROM users WHERE id = 2")
	exec(t, db, "ROLLBACK")

	if n, _ := db.RowCount("users"); n != 3 {
		t.Errorf("rows after rollback = %d, want 3", n)
	}
	rs := exec(t, db, "SELECT name FROM users WHERE id = 1")
	if rs.Rows[0][0].Str != "alice" {
		t.Errorf("update not rolled back: %v", rs.Rows[0][0])
	}
	rs = exec(t, db, "SELECT count(*) FROM users WHERE id = 2")
	if rs.Rows[0][0].Int != 1 {
		t.Error("delete not rolled back")
	}
}

func TestRollbackRestoresIndexes(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER)")
	exec(t, db, "CREATE INDEX ib ON t(b)")
	exec(t, db, "INSERT INTO t VALUES (1, 10)")
	exec(t, db, "INSERT INTO t VALUES (2, 20)")
	exec(t, db, "BEGIN")
	exec(t, db, "UPDATE t SET b = 99 WHERE a = 1")
	exec(t, db, "ROLLBACK")
	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 10").Rows[0][0].Int; got != 1 {
		t.Errorf("index lookup after rollback = %d, want 1", got)
	}
	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 99").Rows[0][0].Int; got != 0 {
		t.Errorf("stale index entry after rollback: %d", got)
	}
}

func TestTransactionErrors(t *testing.T) {
	db := New()
	m := meter.NewContext()
	if _, err := db.Exec(m, "COMMIT"); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("commit without begin: %v", err)
	}
	if _, err := db.Exec(m, "ROLLBACK"); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("rollback without begin: %v", err)
	}
	exec(t, db, "BEGIN")
	if _, err := db.Exec(m, "BEGIN"); !errors.Is(err, ErrInTransaction) {
		t.Errorf("nested begin: %v", err)
	}
}

func TestDDLErrors(t *testing.T) {
	db := New()
	m := meter.NewContext()
	exec(t, db, "CREATE TABLE t(a INTEGER)")
	if _, err := db.Exec(m, "CREATE TABLE t(a INTEGER)"); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := db.Exec(m, "SELECT a FROM missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := db.Exec(m, "SELECT nope FROM t"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column: %v", err)
	}
	exec(t, db, "DROP TABLE t")
	if _, err := db.Exec(m, "DROP TABLE t"); !errors.Is(err, ErrNoTable) {
		t.Errorf("double drop: %v", err)
	}
}

func TestInsertArityError(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER)")
	if _, err := db.Exec(meter.NewContext(), "INSERT INTO t VALUES (1)"); !errors.Is(err, ErrArity) {
		t.Errorf("arity: %v", err)
	}
}

// TestNullSemantics: SQL has no NULL literal here, but a bound value
// can be NULL. It matches no comparison, and aggregates skip it.
func TestNullSemantics(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER)")
	p, err := prepare("INSERT INTO t VALUES(?)")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{Int(1), Null(), Int(3)} {
		if _, err := db.execPrepared(meter.NewContext(), p, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := exec(t, db, "SELECT count(*) FROM t WHERE a = 1").Rows[0][0].Int; got != 1 {
		t.Errorf("= with NULL rows: %d", got)
	}
	if got := exec(t, db, "SELECT count(*) FROM t WHERE a + 1 = 2").Rows[0][0].Int; got != 1 {
		t.Errorf("+ with NULL rows: %d", got)
	}
	if got := exec(t, db, "SELECT count(a), sum(a) FROM t").Rows[0]; got[0].Int != 2 || got[1].Int != 4 {
		t.Errorf("count/sum skipping NULL = %v", got)
	}
}

func TestTextConcatAndEscapes(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(s TEXT)")
	exec(t, db, "INSERT INTO t VALUES ('it''s')")
	exec(t, db, "UPDATE t SET s = s + '!'")
	rs := exec(t, db, "SELECT s FROM t")
	if rs.Rows[0][0].Str != "it's!" {
		t.Errorf("concat = %q", rs.Rows[0][0].Str)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"CREATE TABLE",
		"CREATE TABLE t(a BLOB)",
		"INSERT INTO t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"INSERT INTO t VALUES (1",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a FROM t WHERE a",
		"UPDATE t SET a = 1 = 2",
		"INSERT INTO t VALUES (1) (2)",
		"SELECT a FROM t WHERE s = 'unterminated",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestValueCompareOrdering(t *testing.T) {
	// NULL < numbers < text; int/real compare numerically.
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Int(0), -1},
		{Int(1), Text("a"), -1},
		{Int(2), Real(2.0), 0},
		{Int(3), Real(2.5), 1},
		{Text("a"), Text("b"), -1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := Int(int64(a)), Int(int64(b))
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"HELLO", "hello", true}, // case-insensitive
		{"abc", "%b%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("like(%q,%q) = %v", c.s, c.p, got)
		}
	}
}

func TestBTreeInsertLookup(t *testing.T) {
	tr := newBTree()
	for i := 0; i < 1000; i++ {
		tr.Insert(Int(int64(i%100)), int64(i))
	}
	if tr.Len() != 1000 {
		t.Errorf("len = %d", tr.Len())
	}
	ids := tr.Lookup(Int(42))
	if len(ids) != 10 {
		t.Errorf("lookup(42) = %d rowids, want 10", len(ids))
	}
}

func TestBTreeRangeOrdered(t *testing.T) {
	tr := newBTree()
	for i := 999; i >= 0; i-- {
		tr.Insert(Int(int64(i)), int64(i))
	}
	var keys []int64
	tr.Range(Int(100), Int(199), func(k Value, _ int64) bool {
		keys = append(keys, k.Int)
		return true
	})
	if len(keys) != 100 {
		t.Fatalf("range size = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("range out of order at %d", i)
		}
	}
	if keys[0] != 100 || keys[99] != 199 {
		t.Errorf("range bounds %d..%d", keys[0], keys[99])
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := newBTree()
	for i := 0; i < 500; i++ {
		tr.Insert(Int(int64(i)), int64(i))
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(Int(int64(i)), int64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 250 {
		t.Errorf("len after deletes = %d", tr.Len())
	}
	if ids := tr.Lookup(Int(2)); len(ids) != 0 {
		t.Errorf("deleted key still present: %v", ids)
	}
	if ids := tr.Lookup(Int(3)); len(ids) != 1 {
		t.Errorf("surviving key missing: %v", ids)
	}
	if tr.Delete(Int(99999), 1) {
		t.Error("deleting absent entry returned true")
	}
}

func TestBTreeWalkVisitsAll(t *testing.T) {
	tr := newBTree()
	const n = 300
	for i := 0; i < n; i++ {
		tr.Insert(Int(int64(i*13%n)), int64(i))
	}
	count := 0
	prev := Int(-1)
	tr.Walk(func(k Value, _ int64) bool {
		if Compare(k, prev) < 0 {
			t.Fatal("walk out of order")
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Errorf("walk visited %d, want %d", count, n)
	}
}

func TestBTreeMatchesMapSemantics(t *testing.T) {
	f := func(keys []uint16) bool {
		tr := newBTree()
		ref := make(map[int64]int, len(keys))
		for i, k := range keys {
			tr.Insert(Int(int64(k)), int64(i))
			ref[int64(k)]++
		}
		for k, want := range ref {
			if got := len(tr.Lookup(Int(k))); got != want {
				return false
			}
		}
		return tr.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpeedTestRuns(t *testing.T) {
	st := NewSpeedTest(10)
	m := meter.NewContext()
	results, err := st.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 18 {
		t.Errorf("got %d numbered tests", len(results))
	}
	ids := map[int]bool{}
	for _, r := range results {
		ids[r.ID] = true
	}
	for _, want := range []int{100, 110, 120, 130, 140, 142, 145, 160, 161, 170, 180, 190, 230, 250, 300, 980, 985, 990} {
		if !ids[want] {
			t.Errorf("test %d missing", want)
		}
	}
	if m.Get(meter.Syscalls) == 0 || m.Get(meter.IOWriteBytes) == 0 {
		t.Error("speedtest metered no I/O")
	}
	if Summary(results) == "" {
		t.Error("empty summary")
	}
}

func TestSpeedTestProgressCallback(t *testing.T) {
	st := NewSpeedTest(5)
	var seen []int
	_, err := st.RunWithProgress(meter.NewContext(), func(r TestResult) error {
		seen = append(seen, r.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 18 {
		t.Errorf("progress callbacks = %d", len(seen))
	}
	// An error from the callback stops the suite before the next test
	// and comes back as is.
	stop := errors.New("stop")
	seen = nil
	_, err = st.RunWithProgress(meter.NewContext(), func(r TestResult) error {
		seen = append(seen, r.ID)
		return stop
	})
	if err != stop || len(seen) != 1 {
		t.Errorf("stopped suite: err = %v after %d callbacks, want the callback's error after 1", err, len(seen))
	}
}

// BenchmarkMiniDBSpeedtest measures the embedded SQL engine running
// the full speedtest suite at a small size.
func BenchmarkMiniDBSpeedtest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSpeedTest(10).Run(meter.NewContext()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNumberName(t *testing.T) {
	cases := map[int]string{
		0:     "zero",
		7:     "seven",
		15:    "fifteen",
		42:    "forty two",
		100:   "one hundred",
		101:   "one hundred one",
		999:   "nine hundred ninety nine",
		1000:  "one thousand",
		12345: "twelve thousand three hundred forty five",
		-5:    "minus five",
	}
	for n, want := range cases {
		if got := string(appendNumberName(nil, n)); got != want {
			t.Errorf("appendNumberName(nil, %d) = %q, want %q", n, got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	if Null().String() != "NULL" || Int(5).String() != "5" || Text("a'b").String() != "'a''b'" {
		t.Error("value rendering wrong")
	}
}

func TestGroupBy(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(dept TEXT, salary INTEGER)")
	for _, r := range []string{"('eng', 100)", "('eng', 200)", "('ops', 50)", "('ops', 70)", "('hr', 30)"} {
		exec(t, db, "INSERT INTO t VALUES "+r)
	}
	rs := exec(t, db, "SELECT dept, count(*), sum(salary), avg(salary) FROM t GROUP BY dept")
	if len(rs.Rows) != 3 {
		t.Fatalf("groups = %d", len(rs.Rows))
	}
	// Output ordered by group key: eng, hr, ops.
	if rs.Rows[0][0].Str != "eng" || rs.Rows[1][0].Str != "hr" || rs.Rows[2][0].Str != "ops" {
		t.Errorf("group order = %v %v %v", rs.Rows[0][0], rs.Rows[1][0], rs.Rows[2][0])
	}
	if rs.Rows[0][1].Int != 2 || rs.Rows[0][2].Int != 300 || rs.Rows[0][3].Real != 150 {
		t.Errorf("eng aggregates = %v", rs.Rows[0])
	}
	if rs.Rows[2][1].Int != 2 || rs.Rows[2][2].Int != 120 {
		t.Errorf("ops aggregates = %v", rs.Rows[2])
	}
}

func TestGroupByWithWhereAndLimit(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(k INTEGER, v INTEGER)")
	for i := 0; i < 40; i++ {
		exec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i%8, i))
	}
	rs := exec(t, db, "SELECT k, count(*) FROM t WHERE v BETWEEN 8 AND 39 GROUP BY k LIMIT 3")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][0].Int != 0 || rs.Rows[0][1].Int != 4 {
		t.Errorf("first group = %v", rs.Rows[0])
	}
}

func TestGroupByDesc(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(k INTEGER)")
	for _, k := range []int{1, 2, 2, 3} {
		exec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", k))
	}
	rs := exec(t, db, "SELECT k, count(*) FROM t GROUP BY k ORDER BY k DESC")
	if rs.Rows[0][0].Int != 3 || rs.Rows[2][0].Int != 1 {
		t.Errorf("desc group order = %v", rs.Rows)
	}
}

func TestGroupByRejectsBadProjection(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER)")
	m := meter.NewContext()
	if _, err := db.Exec(m, "SELECT a, b FROM t GROUP BY a"); err == nil {
		t.Error("non-grouped projection accepted")
	}
	if _, err := db.Exec(m, "SELECT missing, count(*) FROM t GROUP BY missing"); err == nil {
		t.Error("unknown group column accepted")
	}
}

func TestVacuumReclaimsTombstones(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER)")
	exec(t, db, "CREATE INDEX ib ON t(b)")
	for i := 0; i < 200; i++ {
		exec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%10))
	}
	exec(t, db, "DELETE FROM t WHERE b BETWEEN 0 AND 4")
	rs := exec(t, db, "VACUUM")
	if rs.Affected != 100 {
		t.Errorf("vacuum reclaimed %d tombstones, want 100", rs.Affected)
	}
	// Data and indexes must survive compaction.
	if n, _ := db.RowCount("t"); n != 100 {
		t.Errorf("rows after vacuum = %d", n)
	}
	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 7").Rows[0][0].Int; got != 20 {
		t.Errorf("indexed count after vacuum = %d, want 20", got)
	}
	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 2").Rows[0][0].Int; got != 0 {
		t.Errorf("deleted rows resurrected: %d", got)
	}
	// Mutations keep working after the rebuild.
	exec(t, db, "INSERT INTO t VALUES (999, 7)")
	if got := exec(t, db, "SELECT count(*) FROM t WHERE b = 7").Rows[0][0].Int; got != 21 {
		t.Errorf("insert after vacuum broken: %d", got)
	}
}

func TestVacuumInsideTransactionRejected(t *testing.T) {
	db := New()
	exec(t, db, "BEGIN")
	if _, err := db.Exec(meter.NewContext(), "VACUUM"); err == nil {
		t.Error("VACUUM inside transaction accepted")
	}
}

func TestBTreeHeavyDuplicates(t *testing.T) {
	// Regression: duplicates straddling leaf splits must all be
	// reachable by Lookup/Range and removable by Delete.
	tr := newBTree()
	const perKey = 300
	for k := 0; k < 5; k++ {
		for i := 0; i < perKey; i++ {
			tr.Insert(Int(int64(k)), int64(k*1000+i))
		}
	}
	for k := 0; k < 5; k++ {
		if got := len(tr.Lookup(Int(int64(k)))); got != perKey {
			t.Errorf("lookup(%d) = %d, want %d", k, got, perKey)
		}
	}
	// Delete every other duplicate of key 2.
	for i := 0; i < perKey; i += 2 {
		if !tr.Delete(Int(2), int64(2000+i)) {
			t.Fatalf("delete dup %d failed", i)
		}
	}
	if got := len(tr.Lookup(Int(2))); got != perKey/2 {
		t.Errorf("after deletes lookup(2) = %d, want %d", got, perKey/2)
	}
}

// TestSpeedTestIsPure: two executions of the suite report the same
// results and meter the same usage test by test, so one cluster can
// price one execution on every platform.
func TestSpeedTestIsPure(t *testing.T) {
	type run struct {
		results []TestResult
		usage   []meter.Usage
	}
	var runs [2]run
	for i := range runs {
		m := meter.NewContext()
		results, err := NewSpeedTest(5).RunWithProgress(m, func(TestResult) error {
			runs[i].usage = append(runs[i].usage, m.Snapshot())
			m.Reset()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runs[i].results = results
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("two runs differ:\n%+v\n%+v", runs[0], runs[1])
	}
}
