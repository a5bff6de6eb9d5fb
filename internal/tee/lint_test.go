package tee_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLintMachineLeavesHaveCallers keeps the platform machines to the
// leaves a measurement drives: every exported method of the TDX module,
// the SEV RMP and AMD-SP, and the CCA RMM must be named by a selector
// in a non-test file that imports its package, or that lives in it
// beside the declaring file. Transitions are priced by the cost model,
// not stepped through a machine, so a runtime leaf with no such caller
// is a second model no number reads. The three inspection handles the
// lifecycle conformance leak checks read are the only exemption, and
// each must still be read there.
func TestLintMachineLeavesHaveCallers(t *testing.T) {
	root := filepath.Join("..", "..")
	machines := map[string][]string{
		"internal/tee/tdx": {"Module"},
		"internal/tee/sev": {"RMP", "AMDSP"},
		"internal/tee/cca": {"RMM"},
	}
	inspection := map[string]bool{"AssignedPages": true, "DelegatedGranules": true, "RealmByID": true}

	type leaf struct{ dir, recv, name, file string }
	type source struct {
		dir       string
		imports   map[string]bool
		selectors map[string]bool
	}
	var leaves []leaf
	sources := map[string]source{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			// benchmark/ is a module of its own.
			if name := d.Name(); name == "testdata" || rel == "benchmark" || (strings.HasPrefix(name, ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		src := source{dir: path.Dir(rel), imports: map[string]bool{}, selectors: map[string]bool{}}
		for _, imp := range file.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			src.imports[strings.TrimPrefix(ip, "confbench/")] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				src.selectors[sel.Sel.Name] = true
			}
			return true
		})
		sources[rel] = src
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			recv, ok := star.X.(*ast.Ident)
			if !ok {
				continue
			}
			for _, m := range machines[src.dir] {
				if recv.Name == m {
					leaves = append(leaves, leaf{src.dir, m, fn.Name.Name, rel})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < len(machines)*4 {
		t.Fatalf("lint found %d machine leaves: it is looking in the wrong place", len(leaves))
	}

	for _, l := range leaves {
		if inspection[l.name] {
			continue
		}
		called := false
		for f, src := range sources {
			if f != l.file && (src.dir == l.dir || src.imports[l.dir]) && src.selectors[l.name] {
				called = true
				break
			}
		}
		if !called {
			t.Errorf("%s: (*%s).%s has no caller outside tests — drive it from a lifecycle, attestation or migration step, or delete it",
				l.file, l.recv, l.name)
		}
	}

	leak, err := parser.ParseFile(fset, "lifecycle_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	ast.Inspect(leak, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && inspection[sel.Sel.Name] {
			read[sel.Sel.Name] = true
		}
		return true
	})
	for name := range inspection {
		if !read[name] {
			t.Errorf("%s is exempt as an inspection handle but lifecycle_test.go no longer reads it", name)
		}
	}
}

// TestLintNoRandState keeps pricing noise a function of (stream, key):
// non-test code on the pricing path may not build a generator
// (rand.New, rand.NewSource) or name a *rand.Rand, which would make a
// price depend on what was drawn before it. CostModel.Apply's parameter
// is the one exemption: the benchmark calls Apply with a generator of
// its own.
func TestLintNoRandState(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files, exempted := 0, 0
	for _, dir := range []string{"internal/tee", "internal/vm", "internal/bench", "cmd/confbench-bench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				return err
			}
			files++
			rand := map[string]bool{}
			for _, imp := range file.Imports {
				if ip, _ := strconv.Unquote(imp.Path.Value); ip == "math/rand" || ip == "math/rand/v2" {
					name := path.Base(strings.TrimSuffix(ip, "/v2"))
					if imp.Name != nil {
						name = imp.Name.Name
					}
					rand[name] = true
				}
			}
			var exempt *ast.FieldList
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Apply" && fn.Recv != nil {
					if recv, ok := fn.Recv.List[0].Type.(*ast.Ident); ok && recv.Name == "CostModel" {
						exempt = fn.Type.Params
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if exempt != nil && n == exempt {
					exempted++
					return false
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && rand[x.Name] && (sel.Sel.Name == "New" || sel.Sel.Name == "NewSource" || sel.Sel.Name == "Rand") {
					t.Errorf("%s: %s.%s — draw pricing noise under a sample key, not from a generator's state",
						fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 25 || exempted != 1 {
		t.Fatalf("lint read %d files and exempted %d parameter lists: it is looking in the wrong place", files, exempted)
	}
}
