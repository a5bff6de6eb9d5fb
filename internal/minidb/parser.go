package minidb

import (
	"fmt"
	"strconv"
	"strings"
)

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
// `col OP literal` and BETWEEN on literals into index ranges) and the
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
	// Optional trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
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
		p.acceptKw("TRANSACTION")
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
		if p.acceptKw("IF") {
			if err := p.expectKw("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
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
	if t.kind != tokIdent {
		return TypeNull, p.errf("expected column type, got %q", t.raw)
	}
	p.next()
	switch t.text {
	case "INTEGER", "INT":
		return TypeInt, nil
	case "REAL", "FLOAT", "DOUBLE":
		return TypeReal, nil
	case "TEXT", "VARCHAR", "STRING":
		// Optional length suffix like VARCHAR(100).
		if p.acceptPunct("(") {
			if p.peek().kind != tokNumber {
				return TypeNull, p.errf("expected length")
			}
			p.next()
			if err := p.expectPunct(")"); err != nil {
				return TypeNull, err
			}
		}
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
	st := &InsertStmt{Table: table}
	if p.acceptPunct("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
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
	if p.acceptKw("WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
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
		if p.acceptKw("DESC") {
			st.Desc = true
		} else {
			p.acceptKw("ASC")
		}
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
	if p.acceptPunct("*") {
		return SelectExpr{Star: true}, nil
	}
	t := p.peek()
	if t.kind == tokIdent && aggregates[t.text] && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "(" {
		agg := t.text
		p.next()
		p.next() // (
		if agg == "COUNT" && p.acceptPunct("*") {
			if err := p.expectPunct(")"); err != nil {
				return SelectExpr{}, err
			}
			return SelectExpr{Agg: "COUNT"}, nil
		}
		e, err := p.expr()
		if err != nil {
			return SelectExpr{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return SelectExpr{}, err
		}
		return SelectExpr{Agg: agg, Expr: e}, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectExpr{}, err
	}
	return SelectExpr{Expr: e}, nil
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
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Col: col, Expr: e})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
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
	if p.acceptKw("WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) drop() (Stmt, error) {
	p.next() // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = table
	return st, nil
}

// Expression grammar, lowest to highest precedence:
// expr := and (OR and)*
// and  := not (AND not)*
// not  := [NOT] cmp
// cmp  := add ((=|!=|<|<=|>|>=) add | BETWEEN add AND add |
//
//	IS [NOT] NULL | LIKE add)?
//
// add  := mul ((+|-) mul)*
// mul  := primary ((*|/) primary)*
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "<", "<=", ">", ">=", "!=":
			op := t.text
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		case "<>":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: "!=", L: l, R: r}, nil
		}
	}
	if p.acceptKw("BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Between{E: l, Lo: lo, Hi: hi}, nil
	}
	if p.acceptKw("IS") {
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Neg: neg}, nil
	}
	if p.acceptKw("LIKE") {
		pat, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Like{E: l, Pattern: pat}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{V: Real(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{V: Int(n)}, nil
	case t.kind == tokString:
		p.next()
		return &Literal{V: Text(t.text)}, nil
	case t.kind == tokPunct && t.text == "-":
		p.next()
		inner, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: "-", L: &Literal{V: Int(0)}, R: inner}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokPunct && t.text == "?":
		p.next()
		slot := &Literal{}
		p.params = append(p.params, slot)
		return slot, nil
	case t.kind == tokIdent && t.text == "NULL":
		p.next()
		return &Literal{V: Null()}, nil
	case t.kind == tokIdent:
		p.next()
		return &ColRef{Name: strings.ToLower(t.raw)}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", t.raw)
	}
}
