package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestLintNoTimersOnTheCarrier keeps a linger from coming back
// silently: the binary carrier's two ends batch by overlap, never by
// waiting, so neither file may start a timer. The one wait they hold —
// the wire.frame fault point's injected latency — is a time.Sleep,
// which the lint requires to still be there so it cannot pass by
// looking at the wrong files.
func TestLintNoTimersOnTheCarrier(t *testing.T) {
	banned := map[string]bool{"NewTimer": true, "After": true, "AfterFunc": true, "NewTicker": true, "Tick": true}
	fset := token.NewFileSet()
	sleeps := 0
	for _, name := range []string{"binary.go", "server.go"} {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" {
				return true
			}
			if sel.Sel.Name == "Sleep" {
				sleeps++
			}
			if banned[sel.Sel.Name] {
				t.Errorf("%s:%d: time.%s on the binary carrier — frames coalesce while a write is under way, not on a timer",
					name, fset.Position(sel.Pos()).Line, sel.Sel.Name)
			}
			return true
		})
	}
	if sleeps != 1 {
		t.Errorf("found %d time.Sleep calls, want exactly the fault-injection one in serveWire", sleeps)
	}
}
