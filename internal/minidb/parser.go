package minidb

import (
	"fmt"
	"strconv"
	"strings"
)

// The grammar is what the speedtest (speedtest.go) executes, and no
// more (TestParserAcceptsOnlyWhatTheSpeedtestRuns):
//
//	stmt    := CREATE TABLE name ( col type {, col type} )
//	         | CREATE INDEX name ON table ( col )
//	         | INSERT INTO table VALUES ( literal {, literal} )
//	         | SELECT proj {, proj} FROM table [where] [GROUP BY col]
//	           [ORDER BY col [DESC]] [LIMIT integer]
//	         | UPDATE table SET col = sum {, col = sum} [where]
//	         | DELETE FROM table [where]
//	         | DROP TABLE table
//	         | BEGIN | COMMIT | ROLLBACK | VACUUM
//	type    := INTEGER | TEXT
//	proj    := col | COUNT ( * ) | (COUNT | SUM | AVG | MIN | MAX) ( col )
//	where   := WHERE sum (= sum | BETWEEN sum AND sum | LIKE sum)
//	sum     := primary {+ primary}
//	primary := literal | col
//	literal := integer | 'string' | ?
//
// Keywords are case-insensitive; names are folded to lower case.

// Parse parses a single SQL statement. A `?` placeholder is a syntax
// error here: only a prepared statement binds values to it.
func Parse(sql string) (Stmt, error) {
	p, stmt, err := parse(sql)
	if err != nil {
		return nil, err
	}
	if len(p.params) > 0 {
		for _, t := range p.toks {
			if t.kind == tokPunct && t.text == "?" {
				return nil, &SyntaxError{Pos: t.pos, Msg: "unbound parameter"}
			}
		}
	}
	return stmt, nil
}

// prepared is a statement parsed once and executed many times, as
// speedtest1.c prepares each loop statement and binds per row. Each
// `?` is an ordinary *Literal in the tree, so the planner (which turns
// `col = literal` and BETWEEN on literals into index ranges) and the
// evaluator see exactly what parsing the inlined text would give them;
// binding overwrites the slots' values in place.
type prepared struct {
	stmt   Stmt
	params []*Literal
	// sql is the statement text, for error messages.
	sql string
}

// prepare parses sql, keeping its placeholder slots in source order.
func prepare(sql string) (*prepared, error) {
	p, stmt, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return &prepared{stmt: stmt, params: p.params, sql: sql}, nil
}

func parse(sql string) (*parser, Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, nil, p.errf("trailing input %q", p.peek().raw)
	}
	return p, stmt, nil
}

type parser struct {
	toks []token
	i    int
	// params collects the `?` slots in source order.
	params []*Literal
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// acceptKw consumes the keyword if it is next.
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().raw)
	}
	return nil
}

// acceptPunct consumes the punctuation if it is next.
func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %q", s, p.peek().raw)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.raw)
	}
	p.next()
	return strings.ToLower(t.raw), nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf("expected statement, got %q", t.raw)
	}
	switch t.text {
	case "CREATE":
		return p.create()
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.deleteStmt()
	case "DROP":
		return p.drop()
	case "BEGIN":
		p.next()
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	case "VACUUM":
		p.next()
		return &VacuumStmt{}, nil
	default:
		return nil, p.errf("unknown statement %q", t.raw)
	}
}

func (p *parser) create() (Stmt, error) {
	p.next() // CREATE
	switch {
	case p.acceptKw("TABLE"):
		st := &CreateTableStmt{}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Table = name
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := p.colType()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, ColDef{Name: col, Type: typ})
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return st, nil
	case p.acceptKw("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Col: col}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) colType() (Type, error) {
	t := p.peek()
	switch {
	case p.acceptKw("INTEGER"):
		return TypeInt, nil
	case p.acceptKw("TEXT"):
		return TypeText, nil
	default:
		return TypeNull, p.errf("unsupported column type %q", t.raw)
	}
}

func (p *parser) insert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Values = append(st.Values, v)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // SELECT
	st := &SelectStmt{Limit: -1}
	for {
		se, err := p.selectExpr()
		if err != nil {
			return nil, err
		}
		st.Exprs = append(st.Exprs, se)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if st.Where, err = p.where(); err != nil {
		return nil, err
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.GroupBy = col
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.OrderBy = col
		st.Desc = p.acceptKw("DESC")
	}
	if p.acceptKw("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

var aggregates = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) selectExpr() (SelectExpr, error) {
	t := p.peek()
	if t.kind == tokIdent && aggregates[t.text] && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "(" {
		se := SelectExpr{Agg: t.text}
		p.next()
		p.next() // (
		if se.Agg != "COUNT" || !p.acceptPunct("*") {
			col, err := p.ident()
			if err != nil {
				return SelectExpr{}, err
			}
			se.Col = &ColRef{Name: col}
		}
		if err := p.expectPunct(")"); err != nil {
			return SelectExpr{}, err
		}
		return se, nil
	}
	col, err := p.ident()
	if err != nil {
		return SelectExpr{}, err
	}
	return SelectExpr{Col: &ColRef{Name: col}}, nil
}

func (p *parser) update() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.sum()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Col: col, Expr: e})
		if !p.acceptPunct(",") {
			break
		}
	}
	if st.Where, err = p.where(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if st.Where, err = p.where(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) drop() (Stmt, error) {
	p.next() // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: table}, nil
}

// where parses an optional WHERE clause: nil when there is none.
func (p *parser) where() (Expr, error) {
	if !p.acceptKw("WHERE") {
		return nil, nil
	}
	l, err := p.sum()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptPunct("="):
		r, err := p.sum()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: "=", L: l, R: r}, nil
	case p.acceptKw("BETWEEN"):
		lo, err := p.sum()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.sum()
		if err != nil {
			return nil, err
		}
		return &Between{E: l, Lo: lo, Hi: hi}, nil
	case p.acceptKw("LIKE"):
		pat, err := p.sum()
		if err != nil {
			return nil, err
		}
		return &Like{E: l, Pattern: pat}, nil
	default:
		return nil, p.errf("expected =, BETWEEN or LIKE, got %q", p.peek().raw)
	}
}

// sum parses primary (+ primary)*, left-associative.
func (p *parser) sum() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("+") {
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "+", L: l, R: r}
	}
	return l, nil
}

// primary parses a literal or a column.
func (p *parser) primary() (Expr, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.next()
		return &ColRef{Name: strings.ToLower(t.raw)}, nil
	}
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	return lit, nil
}

// literal parses an integer, a string or a `?` slot.
func (p *parser) literal() (*Literal, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{V: Int(n)}, nil
	case t.kind == tokString:
		p.next()
		return &Literal{V: Text(t.text)}, nil
	case t.kind == tokPunct && t.text == "?":
		p.next()
		slot := &Literal{}
		p.params = append(p.params, slot)
		return slot, nil
	default:
		return nil, p.errf("unexpected token %q in expression", t.raw)
	}
}
