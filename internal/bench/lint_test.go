package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintNoWallClockInPricedValues keeps the wall clock out of what
// the figures report. Outside tests, the attestation flows and this
// package may read the clock in two functions only, each into the one
// sink that prices nothing: attest.Metered stores time.Since in a
// Usage's Wall field, and Runner.Run hands it to its task histogram's
// Observe. Anywhere else a time.Now, time.Since or time.Until could
// feed Timing.Compute, Timing.Infra or a bench result, so it fails.
// The lint also requires the Wall site to exist, so that it cannot
// pass by looking at the wrong files.
func TestLintNoWallClockInPricedValues(t *testing.T) {
	permitted := map[string]string{ // package dir and function → the sink of its time.Since
		"../attest Metered": "Wall",
		". Run":             "Observe",
	}
	fset := token.NewFileSet()
	sinks := map[string]int{}
	for _, dir := range []string{".", "../attest", "../attest/dcap", "../attest/snp"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				sink, ok := permitted[dir+" "+fn.Name.Name]
				fed := map[*ast.CallExpr]bool{} // the time.Since calls that feed sink
				ast.Inspect(fn, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if sel, isSel := n.Lhs[0].(*ast.SelectorExpr); isSel && sel.Sel.Name == sink && len(n.Rhs) == 1 {
							markSince(fed, n.Rhs[0])
						}
					case *ast.CallExpr:
						if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == sink && len(n.Args) == 1 {
							markSince(fed, n.Args[0])
						}
					}
					return true
				})
				ast.Inspect(fn, func(n ast.Node) bool {
					call, isCall := n.(*ast.CallExpr)
					if !isCall {
						return true
					}
					read := clockRead(call)
					switch {
					case read == "":
					case read == "Since" && fed[call]:
						sinks[sink]++
					case read == "Now" && ok:
						// The start of the permitted interval.
					default:
						t.Errorf("%s:%d: time.%s in %s — a wall-clock reading may feed a priced value; price metered work instead (attest.Metered keeps the wall time apart)",
							name, fset.Position(call.Pos()).Line, read, fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	if sinks["Wall"] != 1 {
		t.Errorf("found %d time.Since into a Wall field, want exactly the one in attest.Metered", sinks["Wall"])
	}
}

// clockRead names the wall-clock function call calls — Now, Since or
// Until of package time — or returns "".
func clockRead(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" {
		return ""
	}
	switch sel.Sel.Name {
	case "Now", "Since", "Until":
		return sel.Sel.Name
	}
	return ""
}

// markSince records e in fed when it is a time.Since call.
func markSince(fed map[*ast.CallExpr]bool, e ast.Expr) {
	if call, ok := e.(*ast.CallExpr); ok && clockRead(call) == "Since" {
		fed[call] = true
	}
}
