package minidb

import (
	"fmt"
	"strings"

	"confbench/internal/meter"
)

// SpeedTest mirrors the structure of SQLite's speedtest1.c: a sequence
// of numbered tests exercising typical relational operations (bulk
// inserts with and without indexes, point and range selects, ordered
// scans, updates, deletes, aggregates, rollback), sized by a relative
// "size" parameter — the paper keeps the default of 100.
type SpeedTest struct {
	// Size is the relative test size (speedtest1's --size; default 100).
	Size int
	// Backend, when set, mounts the suite's database on a storage
	// backend (a DurableBackend makes every commit point append to a
	// checksummed log and fsync, so the metered costs include real
	// write amplification). Nil runs the classic in-memory suite.
	Backend Backend
	// db is rebuilt on every Run.
	db *Database
	// stopped is the progress callback's error; exec refuses after it.
	stopped error
}

// TestResult reports one numbered test.
type TestResult struct {
	// ID is the speedtest1-style test number.
	ID int `json:"id"`
	// Name describes the test.
	Name string `json:"name"`
	// Statements is the number of SQL statements executed.
	Statements int `json:"statements"`
	// Rows is the number of rows produced or affected.
	Rows int `json:"rows"`
}

// NewSpeedTest builds a suite with the given relative size (0 = 100).
func NewSpeedTest(size int) *SpeedTest {
	if size <= 0 {
		size = 100
	}
	return &SpeedTest{Size: size}
}

// n scales a base count by the relative size.
func (st *SpeedTest) n(base int) int {
	v := base * st.Size / 100
	if v < 1 {
		v = 1
	}
	return v
}

// numberName spells a small number in words, like speedtest1's
// number-to-text helper, producing realistic TEXT payloads.
func numberName(n int) string {
	ones := []string{"zero", "one", "two", "three", "four", "five", "six",
		"seven", "eight", "nine", "ten", "eleven", "twelve", "thirteen",
		"fourteen", "fifteen", "sixteen", "seventeen", "eighteen", "nineteen"}
	tens := []string{"", "", "twenty", "thirty", "forty", "fifty", "sixty",
		"seventy", "eighty", "ninety"}
	if n < 0 {
		return "minus " + numberName(-n)
	}
	switch {
	case n < 20:
		return ones[n]
	case n < 100:
		s := tens[n/10]
		if n%10 != 0 {
			s += " " + ones[n%10]
		}
		return s
	case n < 1000:
		s := ones[n/100] + " hundred"
		if n%100 != 0 {
			s += " " + numberName(n%100)
		}
		return s
	default:
		s := numberName(n/1000) + " thousand"
		if n%1000 != 0 {
			s += " " + numberName(n%1000)
		}
		return s
	}
}

// exec runs one statement, failing the whole suite on error.
func (st *SpeedTest) exec(m *meter.Context, sql string) (*ResultSet, error) {
	if st.stopped != nil {
		return nil, st.stopped
	}
	rs, err := st.db.Exec(m, sql)
	if err != nil {
		return nil, fmt.Errorf("minidb speedtest: %q: %w", truncateSQL(sql), err)
	}
	return rs, nil
}

func truncateSQL(sql string) string {
	if len(sql) > 60 {
		return sql[:57] + "..."
	}
	return sql
}

// Run executes the full suite into a fresh database, metering all work
// into m.
func (st *SpeedTest) Run(m *meter.Context) ([]TestResult, error) {
	return st.RunWithProgress(m, nil)
}

// RunWithProgress is Run with a per-test callback, invoked right after
// each numbered test completes (the benchmark harness uses it to
// snapshot per-test metered usage and to look at its context). An error
// from the callback stops the suite before the next statement and is
// returned as is.
func (st *SpeedTest) RunWithProgress(m *meter.Context, progress func(TestResult) error) ([]TestResult, error) {
	db, err := NewWithBackend(st.Backend)
	if err != nil {
		return nil, fmt.Errorf("minidb speedtest: %w", err)
	}
	st.db, st.stopped = db, nil
	var results []TestResult
	record := func(id int, name string, statements, rows int) {
		r := TestResult{ID: id, Name: name, Statements: statements, Rows: rows}
		results = append(results, r)
		if progress != nil && st.stopped == nil {
			st.stopped = progress(r)
		}
	}
	rnd := xorshiftDB(12345)

	// --- 100: INSERTs into an unindexed table, one transaction ---
	n := st.n(5000)
	if _, err := st.exec(m, "CREATE TABLE t1(a INTEGER, b INTEGER, c TEXT)"); err != nil {
		return nil, err
	}
	if _, err := st.exec(m, "BEGIN"); err != nil {
		return nil, err
	}
	stmts := 0
	for i := 1; i <= n; i++ {
		b := int(rnd.next() % 1000000)
		sql := fmt.Sprintf("INSERT INTO t1 VALUES(%d,%d,'%s')", i, b, numberName(b%100000))
		if _, err := st.exec(m, sql); err != nil {
			return nil, err
		}
		stmts++
	}
	if _, err := st.exec(m, "COMMIT"); err != nil {
		return nil, err
	}
	record(100, fmt.Sprintf("%d INSERTs into table with no index", n), stmts+2, n)

	// --- 110: ordered INSERTs into an indexed table ---
	if _, err := st.exec(m, "CREATE TABLE t2(a INTEGER, b INTEGER, c TEXT)"); err != nil {
		return nil, err
	}
	if _, err := st.exec(m, "CREATE INDEX i2b ON t2(b)"); err != nil {
		return nil, err
	}
	if _, err := st.exec(m, "BEGIN"); err != nil {
		return nil, err
	}
	stmts = 0
	for i := 1; i <= n; i++ {
		sql := fmt.Sprintf("INSERT INTO t2 VALUES(%d,%d,'%s')", i, i*3, numberName(i%10000))
		if _, err := st.exec(m, sql); err != nil {
			return nil, err
		}
		stmts++
	}
	if _, err := st.exec(m, "COMMIT"); err != nil {
		return nil, err
	}
	record(110, fmt.Sprintf("%d ordered INSERTS with one index", n), stmts+2, n)

	// --- 120: range SELECTs without an index ---
	q := st.n(40)
	var rows int
	for i := 0; i < q; i++ {
		lo := int(rnd.next() % 900000)
		sql := fmt.Sprintf("SELECT count(*), avg(b) FROM t1 WHERE b BETWEEN %d AND %d", lo, lo+100000)
		rs, err := st.exec(m, sql)
		if err != nil {
			return nil, err
		}
		rows += len(rs.Rows)
	}
	record(120, fmt.Sprintf("%d range queries without index", q), q, rows)

	// --- 130: LIKE scans ---
	q = st.n(20)
	rows = 0
	for i := 0; i < q; i++ {
		sql := fmt.Sprintf("SELECT count(*) FROM t1 WHERE c LIKE '%%%s%%'", numberName(i)[:3])
		rs, err := st.exec(m, sql)
		if err != nil {
			return nil, err
		}
		rows += len(rs.Rows)
	}
	record(130, fmt.Sprintf("%d LIKE queries", q), q, rows)

	// --- 140: ORDER BY with LIMIT ---
	q = st.n(10)
	rows = 0
	for i := 0; i < q; i++ {
		rs, err := st.exec(m, "SELECT a, b FROM t1 ORDER BY b DESC LIMIT 10")
		if err != nil {
			return nil, err
		}
		rows += len(rs.Rows)
	}
	record(140, fmt.Sprintf("%d ORDER BY ... LIMIT queries", q), q, rows)

	// --- 142: indexed point and range SELECTs ---
	q = st.n(200)
	rows = 0
	for i := 0; i < q; i++ {
		b := (int(rnd.next()) % n) * 3
		if b < 0 {
			b = -b
		}
		rs, err := st.exec(m, fmt.Sprintf("SELECT a, c FROM t2 WHERE b = %d", b))
		if err != nil {
			return nil, err
		}
		rows += len(rs.Rows)
	}
	record(142, fmt.Sprintf("%d indexed point queries", q), q, rows)

	// --- 145: aggregates over the whole table ---
	rs, err := st.exec(m, "SELECT count(*), sum(b), avg(b), min(b), max(b) FROM t1")
	if err != nil {
		return nil, err
	}
	record(145, "full-table aggregates", 1, len(rs.Rows))

	// --- 160: unindexed range UPDATE ---
	u := st.n(10)
	affected := 0
	for i := 0; i < u; i++ {
		lo := i * 50000
		rs, err := st.exec(m, fmt.Sprintf("UPDATE t1 SET b = b + 1 WHERE b BETWEEN %d AND %d", lo, lo+25000))
		if err != nil {
			return nil, err
		}
		affected += rs.Affected
	}
	record(160, fmt.Sprintf("%d range UPDATEs without index", u), u, affected)

	// --- 161: indexed point UPDATEs ---
	q = st.n(100)
	affected = 0
	for i := 0; i < q; i++ {
		b := (i * 7 % n) * 3
		rs, err := st.exec(m, fmt.Sprintf("UPDATE t2 SET c = 'updated' WHERE b = %d", b))
		if err != nil {
			return nil, err
		}
		affected += rs.Affected
	}
	record(161, fmt.Sprintf("%d indexed point UPDATEs", q), q, affected)

	// --- 170: range DELETE and refill ---
	rs, err = st.exec(m, fmt.Sprintf("DELETE FROM t1 WHERE a BETWEEN 1 AND %d", st.n(1000)))
	if err != nil {
		return nil, err
	}
	deleted := rs.Affected
	if _, err := st.exec(m, "BEGIN"); err != nil {
		return nil, err
	}
	for i := 1; i <= deleted; i++ {
		sql := fmt.Sprintf("INSERT INTO t1 VALUES(%d,%d,'%s')", 1000000+i, i, numberName(i))
		if _, err := st.exec(m, sql); err != nil {
			return nil, err
		}
	}
	if _, err := st.exec(m, "COMMIT"); err != nil {
		return nil, err
	}
	record(170, "range DELETE and refill", deleted+3, deleted)

	// --- 180: bulk load then CREATE INDEX ---
	if _, err := st.exec(m, "CREATE TABLE t3(a INTEGER, b INTEGER, c TEXT)"); err != nil {
		return nil, err
	}
	if _, err := st.exec(m, "BEGIN"); err != nil {
		return nil, err
	}
	n3 := st.n(2500)
	for i := 1; i <= n3; i++ {
		sql := fmt.Sprintf("INSERT INTO t3 VALUES(%d,%d,'%s')", i, int(rnd.next()%100000), numberName(i%1000))
		if _, err := st.exec(m, sql); err != nil {
			return nil, err
		}
	}
	if _, err := st.exec(m, "COMMIT"); err != nil {
		return nil, err
	}
	if _, err := st.exec(m, "CREATE INDEX i3b ON t3(b)"); err != nil {
		return nil, err
	}
	record(180, fmt.Sprintf("CREATE INDEX over %d rows", n3), n3+4, n3)

	// --- 190: indexed DELETEs ---
	q = st.n(50)
	affected = 0
	for i := 0; i < q; i++ {
		rs, err := st.exec(m, fmt.Sprintf("DELETE FROM t2 WHERE b = %d", i*3))
		if err != nil {
			return nil, err
		}
		affected += rs.Affected
	}
	record(190, fmt.Sprintf("%d indexed DELETEs", q), q, affected)

	// --- 230: text-rewriting UPDATE ---
	rs, err = st.exec(m, fmt.Sprintf("UPDATE t3 SET c = c + '-suffix' WHERE a BETWEEN 1 AND %d", st.n(500)))
	if err != nil {
		return nil, err
	}
	record(230, "text-rewriting UPDATE", 1, rs.Affected)

	// --- 250: full scans over every table ---
	rows = 0
	for _, tbl := range []string{"t1", "t2", "t3"} {
		rs, err := st.exec(m, "SELECT count(*) FROM "+tbl)
		if err != nil {
			return nil, err
		}
		if len(rs.Rows) == 1 && rs.Rows[0][0].Type == TypeInt {
			rows += int(rs.Rows[0][0].Int)
		}
	}
	record(250, "full-table scans", 3, rows)

	// --- 300: grouped aggregates ---
	rs, err = st.exec(m, "SELECT b, count(*), avg(a) FROM t3 GROUP BY b LIMIT 50")
	if err != nil {
		return nil, err
	}
	record(300, "grouped aggregates over t3", 1, len(rs.Rows))

	// --- 980: transaction rollback stress ---
	if _, err := st.exec(m, "BEGIN"); err != nil {
		return nil, err
	}
	nr := st.n(500)
	for i := 1; i <= nr; i++ {
		sql := fmt.Sprintf("INSERT INTO t1 VALUES(%d,%d,'rollback me')", 2000000+i, i)
		if _, err := st.exec(m, sql); err != nil {
			return nil, err
		}
	}
	before, err := st.db.RowCount("t1")
	if err != nil {
		return nil, err
	}
	if _, err := st.exec(m, "ROLLBACK"); err != nil {
		return nil, err
	}
	after, err := st.db.RowCount("t1")
	if err != nil {
		return nil, err
	}
	if before-after != nr {
		return nil, fmt.Errorf("minidb speedtest: rollback undid %d rows, want %d", before-after, nr)
	}
	record(980, fmt.Sprintf("rollback of %d INSERTs", nr), nr+2, nr)

	// --- 985: VACUUM reclaims the deleted rows ---
	rs, err = st.exec(m, "VACUUM")
	if err != nil {
		return nil, err
	}
	record(985, "VACUUM", 1, rs.Affected)

	// --- 990: DROP the schema ---
	for _, tbl := range []string{"t1", "t2", "t3"} {
		if _, err := st.exec(m, "DROP TABLE "+tbl); err != nil {
			return nil, err
		}
	}
	record(990, "DROP TABLEs", 3, 0)

	return results, st.stopped
}

// Summary renders results like speedtest1's console output.
func Summary(results []TestResult) string {
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, " %3d - %-50s (%d stmts, %d rows)\n", r.ID, r.Name, r.Statements, r.Rows)
	}
	return sb.String()
}

// xorshiftDB is the suite's deterministic PRNG.
type xorshiftDB uint64

func (x *xorshiftDB) next() uint64 {
	v := uint64(*x) | 1
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshiftDB(v)
	return v
}
