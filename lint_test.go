package confbench_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLintOneHTTPClient keeps the tree on one HTTP client, api's
// Peer.Exchange: one pool, one idle sweep, one policy (HTTP/1.1, no
// proxy variable). In the non-test files outside internal/api and
// benchmark/, a file that imports net/http may not name http.Client,
// its defaults, http.Transport or the request builders, nor call the
// package's DefaultClient shorthands; and a one-argument Do that is not
// handed a func literal (sync.Once's is) is a client's Do.
func TestLintOneHTTPClient(t *testing.T) {
	banned := map[string]bool{
		"Client": true, "DefaultClient": true, "DefaultTransport": true, "Transport": true,
		"NewRequest": true, "NewRequestWithContext": true,
		"Get": true, "Head": true, "Post": true, "PostForm": true,
	}
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "api") ||
				d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		httpName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "net/http" {
				httpName = "http"
				if imp.Name != nil {
					httpName = imp.Name.Name
				}
			}
		}
		if httpName == "" {
			return nil
		}
		scanned++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == httpName && banned[n.Sel.Name] {
					t.Errorf("%s: http.%s: a second HTTP client; use api.Peer.Exchange", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" && len(n.Args) == 1 {
					if _, fn := n.Args[0].(*ast.FuncLit); !fn {
						t.Errorf("%s: .Do on an HTTP client; use api.Peer.Exchange", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The doors, the gateway and the PCS serve HTTP: a walk that finds
	// no net/http file looked at the wrong tree.
	if scanned < 5 {
		t.Errorf("scanned %d files importing net/http, want the servers' at least", scanned)
	}
}
