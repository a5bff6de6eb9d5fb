package door_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLintOneMux keeps the ConfBench API surface registered in one
// place: outside tests, only door.go may build an http.ServeMux or
// register a handler on one, so a fourth way of mounting routes cannot
// grow back beside the route table. The two other HTTP servers in the
// tree serve no ConfBench route and are allow-listed: the simulated
// Intel PCS and the pprof side door.
func TestLintOneMux(t *testing.T) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	allowed := map[string]bool{
		"internal/door/door.go":         true,
		"internal/attest/dcap/pcs.go":   true,
		"internal/profiler/profiler.go": true,
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			// benchmark/ is a module of its own and mounts nothing.
			if name := d.Name(); name == "testdata" || rel == "benchmark" || (strings.HasPrefix(name, ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := sel.Sel.Name; name != "NewServeMux" && name != "HandleFunc" {
				return true
			}
			rel = filepath.ToSlash(rel)
			seen[rel] = true
			if !allowed[rel] {
				t.Errorf("%s:%d: %s outside internal/door/door.go — bind the route with the door package instead",
					rel, fset.Position(call.Pos()).Line, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen["internal/door/door.go"] {
		t.Error("lint found no mux in internal/door/door.go: it is looking in the wrong place")
	}
}
