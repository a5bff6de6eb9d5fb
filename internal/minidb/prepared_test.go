package minidb

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"confbench/internal/meter"
)

// TestSyntaxErrorPositions pins where a syntax error points for each
// token kind: at the start of the offending token, or at the end of the
// input for EOF.
func TestSyntaxErrorPositions(t *testing.T) {
	cases := []struct {
		kind, sql string
		pos       int
		msg       string
	}{
		{"ident", "SELECT a FROM t WHERE b = 1 extra", 28, `trailing input "extra"`},
		{"number", "SELECT a FROM t LIMIT 5 6", 24, `trailing input "6"`},
		{"string", "SELECT a FROM t WHERE b = 'abc' 'def'", 32, `trailing input "'def'"`},
		{"escaped string", "DROP TABLE 'it''s'", 11, `expected identifier, got "'it''s'"`},
		{"punct", "SELECT a FROM t )", 16, `trailing input ")"`},
		{"EOF", "SELECT a FROM", 13, `expected identifier, got ""`},
	}
	for _, c := range cases {
		_, err := Parse(c.sql)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: Parse(%q) = %v, want a *SyntaxError", c.kind, c.sql, err)
			continue
		}
		if se.Pos != c.pos || se.Msg != c.msg {
			t.Errorf("%s: Parse(%q) error at %d %q, want at %d %q", c.kind, c.sql, se.Pos, se.Msg, c.pos, c.msg)
		}
	}
}

// TestUnboundParameterRejected: text execution has nothing to bind a
// `?` to, so Parse and Exec refuse it where it stands.
func TestUnboundParameterRejected(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b TEXT)")
	for _, sql := range []string{
		"SELECT a FROM t WHERE a = ?",
		"INSERT INTO t VALUES(1, ?)",
	} {
		_, err := db.Exec(meter.NewContext(), sql)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Msg != "unbound parameter" || sql[se.Pos] != '?' {
			t.Errorf("Exec(%q) = %v, want an unbound-parameter syntax error at the '?'", sql, err)
		}
	}
	if n, _ := db.RowCount("t"); n != 0 {
		t.Errorf("rejected INSERT left %d rows", n)
	}
}

func TestExecPreparedArity(t *testing.T) {
	db := New()
	exec(t, db, "CREATE TABLE t(a INTEGER, b TEXT)")
	p, err := prepare("INSERT INTO t VALUES(?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]Value{nil, {Int(1)}, {Int(1), Text("x"), Int(2)}} {
		if _, err := db.execPrepared(meter.NewContext(), p, args...); !errors.Is(err, ErrArity) {
			t.Errorf("%d args for 2 slots: err = %v, want ErrArity", len(args), err)
		}
	}
	if _, err := db.execPrepared(meter.NewContext(), p, Int(1), Text("x")); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RowCount("t"); n != 1 {
		t.Errorf("rows = %d after one good step and three refused ones, want 1", n)
	}
	if _, err := prepare("SELECT a FROM t WHERE a = ? ?"); err == nil {
		t.Error("prepare accepted trailing input")
	}
}

// propTemplate is one statement shape of the property test: its text
// with `?` placeholders and a generator for the values they take.
type propTemplate struct {
	sql  string
	args func(r *rand.Rand) []Value
}

// inline substitutes each `?` in sql with its value as SQL text. The
// templates hold no `?` inside a string literal.
func inline(sql string, args []Value) string {
	var sb strings.Builder
	for _, a := range args {
		i := strings.IndexByte(sql, '?')
		sb.WriteString(sql[:i])
		sb.WriteString(a.String())
		sql = sql[i+1:]
	}
	sb.WriteString(sql)
	return sb.String()
}

// TestPreparedMatchesInlinedText is the property behind the suite's
// prepared statements: binding values to a prepared statement gives
// the same result set and the same metered usage as executing the same
// text with the values inlined, statement after statement on two
// databases fed one seeded sequence. Integers are non-negative because
// the grammar has no negative literal: only a bound value can be one.
func TestPreparedMatchesInlinedText(t *testing.T) {
	words := []string{"alpha", "beta", "it's", "", "gamma ray", "%", "o'o"}
	word := func(r *rand.Rand) Value { return Text(words[r.Intn(len(words))]) }
	num := func(r *rand.Rand) Value { return Int(r.Int63n(200)) }
	templates := []propTemplate{
		{"INSERT INTO t VALUES(?, ?, ?)", func(r *rand.Rand) []Value { return []Value{num(r), num(r), word(r)} }},
		{"INSERT INTO t VALUES(?, 7, 'fixed')", func(r *rand.Rand) []Value { return []Value{num(r)} }},
		{"SELECT a, c FROM t WHERE b = ?", func(r *rand.Rand) []Value { return []Value{num(r)} }},
		{"SELECT a FROM t WHERE a = ? ORDER BY b DESC LIMIT 3", func(r *rand.Rand) []Value { return []Value{num(r)} }},
		{"SELECT count(*), avg(a) FROM t WHERE b BETWEEN ? AND ?", func(r *rand.Rand) []Value {
			lo := r.Int63n(200)
			return []Value{Int(lo), Int(lo + r.Int63n(50))}
		}},
		{"SELECT count(*), sum(b) FROM t WHERE a BETWEEN ? AND ?", func(r *rand.Rand) []Value {
			lo := r.Int63n(200)
			return []Value{Int(lo), Int(lo + r.Int63n(50))}
		}},
		{"SELECT a, b FROM t WHERE b + ? = a", func(r *rand.Rand) []Value { return []Value{Int(r.Int63n(5))} }},
		{"SELECT count(*) FROM t WHERE c LIKE ?", func(r *rand.Rand) []Value {
			return []Value{Text("%" + words[r.Intn(len(words))] + "%")}
		}},
		{"UPDATE t SET c = ? WHERE b = ?", func(r *rand.Rand) []Value { return []Value{word(r), num(r)} }},
		{"UPDATE t SET a = a + ? WHERE a BETWEEN ? AND ?", func(r *rand.Rand) []Value {
			lo := r.Int63n(200)
			return []Value{num(r), Int(lo), Int(lo + 20)}
		}},
		{"DELETE FROM t WHERE b = ?", func(r *rand.Rand) []Value { return []Value{num(r)} }},
		{"DELETE FROM t WHERE a BETWEEN ? AND ?", func(r *rand.Rand) []Value {
			lo := r.Int63n(200)
			return []Value{Int(lo), Int(lo + 5)}
		}},
	}
	prep := make([]*prepared, len(templates))
	for i, tpl := range templates {
		p, err := prepare(tpl.sql)
		if err != nil {
			t.Fatalf("prepare(%q): %v", tpl.sql, err)
		}
		prep[i] = p
	}
	text, bound := New(), New()
	for _, db := range []*Database{text, bound} {
		exec(t, db, "CREATE TABLE t(a INTEGER, b INTEGER, c TEXT)")
		exec(t, db, "CREATE INDEX tb ON t(b)")
	}
	r := rand.New(rand.NewSource(20))
	selected, affected := 0, 0
	for step := 0; step < 2000; step++ {
		if step%100 == 0 {
			// Alternate autocommit stretches with transactions.
			ctl := "BEGIN"
			if text.inTxn {
				ctl = "COMMIT"
			}
			exec(t, text, ctl)
			exec(t, bound, ctl)
		}
		i := r.Intn(len(templates))
		// The first 200 steps only insert, so the reads find rows.
		if step < 200 {
			i = 0
		}
		args := templates[i].args(r)
		sql := inline(templates[i].sql, args)
		mt, mb := meter.NewContext(), meter.NewContext()
		want, werr := text.Exec(mt, sql)
		got, gerr := bound.execPrepared(mb, prep[i], args...)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("step %d %q: text err %v, prepared err %v", step, sql, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %q: prepared %+v, text %+v", step, sql, got, want)
		}
		if mb.Snapshot() != mt.Snapshot() {
			t.Fatalf("step %d %q: prepared usage [%s], text [%s]", step, sql, mb.Snapshot(), mt.Snapshot())
		}
		if want != nil && i > 1 {
			selected += len(want.Rows)
			affected += want.Affected
		}
	}
	if selected == 0 || affected == 0 {
		t.Errorf("reads returned %d rows and writes after the inserts touched %d: the sequence compared nothing", selected, affected)
	}
}
