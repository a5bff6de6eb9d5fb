package minidb

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// speedtestSQL returns the text of every statement speedtest.go
// executes: each string passed to st.exec or prepareAll, with a
// fmt.Sprintf verb read as 1 and a concatenated table name as t1.
func speedtestSQL(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "speedtest.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var text func(e ast.Expr) string
	text = func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(x.Value)
			if err != nil {
				t.Fatal(err)
			}
			return s
		case *ast.BinaryExpr:
			return text(x.X) + text(x.Y)
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
				return strings.ReplaceAll(text(x.Args[0]), "%d", "1")
			}
		case *ast.Ident:
			return "t1"
		}
		t.Fatalf("speedtest.go: cannot read SQL from %T", e)
		return ""
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fn.Sel.Name == "exec" && len(call.Args) == 2 {
				out = append(out, text(call.Args[1]))
			}
		case *ast.Ident:
			if fn.Name == "prepareAll" {
				for _, a := range call.Args {
					out = append(out, text(a))
				}
			}
		}
		return true
	})
	return out
}

// stringLiterals returns the string literals of a file of this package.
func stringLiterals(t *testing.T, file string) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return true
	})
	return out
}

// nodeTypes returns the types that ast.go gives a stmt() or expr()
// method: every statement and expression node the parser can build.
func nodeTypes(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || (fd.Name.Name != "stmt" && fd.Name.Name != "expr") {
			continue
		}
		out = append(out, fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
	}
	return out
}

// collectNodes records the type name of every Stmt and Expr in v.
func collectNodes(v reflect.Value, seen map[string]bool) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Kind() == reflect.Pointer {
			seen[v.Elem().Type().Name()] = true
		}
		collectNodes(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			collectNodes(v.Field(i), seen)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			collectNodes(v.Index(i), seen)
		}
	}
}

// TestParserAcceptsOnlyWhatTheSpeedtestRuns holds the SQL engine to the
// program it serves: every keyword the parser matches (each
// all-capitals string literal in parser.go), every punctuation token
// the lexer reads, and every statement and expression node of ast.go
// is used by a statement the speedtest executes. A grammar rule that
// no speedtest statement reaches is a parser branch, an AST node and
// an evaluator case that no workload runs; delete it, or add the
// statement that needs it to the speedtest.
func TestParserAcceptsOnlyWhatTheSpeedtestRuns(t *testing.T) {
	sqls := speedtestSQL(t)
	if len(sqls) < 20 {
		t.Fatalf("read %d statements from speedtest.go, want at least 20", len(sqls))
	}
	used := map[string]bool{}
	for _, sql := range sqls {
		p, err := prepare(sql)
		if err != nil {
			t.Fatalf("speedtest statement %q: %v", sql, err)
		}
		toks, _ := lex(sql)
		for _, tok := range toks {
			used[tok.text] = true
		}
		collectNodes(reflect.ValueOf(&p.stmt).Elem(), used)
	}

	keyword := regexp.MustCompile(`^[A-Z]+$`)
	for _, s := range stringLiterals(t, "parser.go") {
		if keyword.MatchString(s) && !used[s] {
			t.Errorf("the parser accepts the keyword %s, which no speedtest statement uses", s)
			used[s] = true // report it once
		}
	}
	// Every byte, and every byte followed by a printable one.
	var puncts []string
	for a := 0; a < 256; a++ {
		puncts = append(puncts, string([]byte{byte(a)}))
		for b := byte('!'); b <= '~'; b++ {
			puncts = append(puncts, string([]byte{byte(a), b}))
		}
	}
	for _, s := range puncts {
		toks, err := lex(s)
		if err == nil && len(toks) == 2 && toks[0].kind == tokPunct && toks[0].text == s && !used[s] {
			t.Errorf("the lexer reads %q, which no speedtest statement uses", s)
		}
	}
	for _, n := range nodeTypes(t) {
		if !used[n] {
			t.Errorf("ast.go defines %s, which no speedtest statement builds", n)
		}
	}
}

// TestDeletedSyntaxIsRefused: SQL outside the grammar (here, common
// SQL the speedtest does not use) is a *SyntaxError from Parse and from
// prepare, never a panic or a statement.
func TestDeletedSyntaxIsRefused(t *testing.T) {
	for _, sql := range []string{
		"CREATE TABLE IF NOT EXISTS t(a INTEGER)",
		"CREATE TABLE t(a INT)",
		"CREATE TABLE t(a REAL)",
		"CREATE TABLE t(a VARCHAR(10))",
		"DROP TABLE IF EXISTS t",
		"INSERT INTO t (a, b) VALUES (1, 2)",
		"INSERT INTO t VALUES (1), (2)",
		"INSERT INTO t VALUES (NULL)",
		"INSERT INTO t VALUES (1.5)",
		"INSERT INTO t VALUES (-1)",
		"INSERT INTO t VALUES ((1))",
		"BEGIN TRANSACTION",
		"SELECT * FROM t",
		"SELECT a + 1 FROM t",
		"SELECT sum(a + 1) FROM t",
		"SELECT a FROM t WHERE a = 1 OR a = 2",
		"SELECT a FROM t WHERE a = 1 AND b = 2",
		"SELECT a FROM t WHERE NOT a = 1",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT a FROM t WHERE a < 1",
		"SELECT a FROM t WHERE a <= 1",
		"SELECT a FROM t WHERE a > 1",
		"SELECT a FROM t WHERE a >= 1",
		"SELECT a FROM t WHERE a != 1",
		"SELECT a FROM t WHERE a <> 1",
		"SELECT a FROM t WHERE a - 1 = 0",
		"SELECT a FROM t WHERE a * 2 = 0",
		"SELECT a FROM t WHERE a / 2 = 0",
		"SELECT a FROM t ORDER BY a ASC",
		"SELECT a FROM t;",
		"SELECT a FROM t -- comment",
	} {
		_, err := Parse(sql)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a *SyntaxError", sql, err)
		}
		if _, err := prepare(sql); !errors.As(err, &se) {
			t.Errorf("prepare(%q) = %v, want a *SyntaxError", sql, err)
		}
	}
}
