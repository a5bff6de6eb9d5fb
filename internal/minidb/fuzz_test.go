package minidb

import (
	"testing"

	"confbench/internal/meter"
)

// FuzzParse asserts the parser never panics and that anything it
// accepts can be executed (or fails cleanly) against a small schema.
// Some seeds use syntax the grammar does not have (*, OR, IS NULL,
// REAL, multi-row VALUES, comments, a trailing semicolon, ...): they
// must be refused, like any other input, without a panic.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT * FROM t WHERE a = 1 AND b < 2 OR c IS NOT NULL",
		"INSERT INTO t VALUES (1, 'x', 2.5), (NULL, '', -3)",
		"CREATE TABLE t(a INTEGER, b TEXT, c INTEGER)",
		"CREATE INDEX i ON t(a)",
		"UPDATE t SET a = a + 1, b = 'y' WHERE c BETWEEN 1 AND 2",
		"DELETE FROM t WHERE b LIKE '%x_'",
		"SELECT b, count(*), sum(a) FROM t GROUP BY b LIMIT 5",
		"SELECT a FROM t ORDER BY a DESC LIMIT 10;",
		"BEGIN", "COMMIT", "ROLLBACK", "VACUUM",
		"DROP TABLE IF EXISTS t",
		"SELECT 'it''s' + b FROM t -- comment",
		"SELECT (a + 1) * -2 / 3 FROM t",
		"sel ect", "SELECT FROM", "'", "((((", "INSERT INTO",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		// Accepted statements must execute or fail cleanly on a live
		// database with a matching-ish schema.
		db := New()
		m := meter.NewContext()
		if _, err := db.Exec(m, "CREATE TABLE t(a INTEGER, b TEXT, c INTEGER)"); err != nil {
			t.Fatal(err)
		}
		_, _ = db.ExecStmt(m, stmt)
	})
}

// FuzzLikeMatch asserts the LIKE matcher terminates and never panics
// on arbitrary inputs.
func FuzzLikeMatch(f *testing.F) {
	f.Add("hello world", "h%o%")
	f.Add("", "%")
	f.Add("aaaaaaaaaa", "%a%a%a%")
	f.Add("x", "_")
	f.Fuzz(func(t *testing.T, s, pattern string) {
		if len(s) > 64 || len(pattern) > 16 {
			return // keep the backtracking matcher's worst case bounded
		}
		_ = likeMatch(s, pattern)
	})
}

// FuzzPrepare asserts that any statement prepare accepts, bound with as
// many Int values as it has slots, executes or fails cleanly, and that
// Parse agrees with it: the same text parses exactly when it has no
// slots to bind.
func FuzzPrepare(f *testing.F) {
	seeds := []string{
		"INSERT INTO t VALUES(?,?,?)",
		"INSERT INTO t(a, b) VALUES(?, 'x'), (?, ?)",
		"SELECT a, c FROM t WHERE a = ?",
		"SELECT count(*), avg(a) FROM t WHERE a BETWEEN ? AND ? + 1",
		"SELECT count(*) FROM t WHERE b LIKE ?",
		"UPDATE t SET b = ? WHERE a = ? AND c > ?",
		"DELETE FROM t WHERE -? < a",
		"SELECT a FROM t", "?", "SELECT ? FROM t", "'?'", "??",
		"UPDATE t SET c = c + ? WHERE b LIKE ?",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		p, err := prepare(sql)
		if err != nil {
			return
		}
		if _, perr := Parse(sql); (perr == nil) != (len(p.params) == 0) {
			t.Fatalf("prepare found %d slots in %q but Parse says %v", len(p.params), sql, perr)
		}
		db := New()
		m := meter.NewContext()
		if _, err := db.Exec(m, "CREATE TABLE t(a INTEGER, b TEXT, c INTEGER)"); err != nil {
			t.Fatal(err)
		}
		args := make([]Value, len(p.params))
		for i := range args {
			args[i] = Int(int64(i))
		}
		_, _ = db.execPrepared(m, p, args...)
	})
}
