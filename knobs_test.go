package confbench_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateKnobs = flag.Bool("update", false, "rewrite testdata/knobs.golden from the current code")

// TestKnobsGolden pins the module's settable surface: every exported
// field of an exported struct named *Config or *Options, every exported
// field of a struct that a functional option type (`type X func(*T)`)
// configures, and every exported top-level With* function, in the
// non-test files outside benchmark/. A line added here is a knob added;
// it needs a second value from a caller outside the tests.
func TestKnobsGolden(t *testing.T) {
	got := strings.Join(knobs(t), "\n") + "\n"
	golden := filepath.Join("testdata", "knobs.golden")
	if *updateKnobs {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Errorf("settable surface moved; diff testdata/knobs.golden against:\n%s", got)
	}
}

// knobs parses the non-test files of every package directory but
// benchmark/ and returns one sorted line per knob, "dir Type.Field type"
// or "dir func WithX(params) results".
func knobs(t *testing.T) []string {
	t.Helper()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for dir, pkg := range files {
		targets := optionTargets(pkg)
		for _, f := range pkg {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && strings.HasPrefix(d.Name.Name, "With") && d.Name.IsExported() {
						lines = append(lines, dir+" func "+d.Name.Name+strings.TrimPrefix(expr(d.Type), "func"))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						lines = append(lines, structKnobs(dir, spec, targets)...)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// structKnobs lists the exported fields of spec when it declares an
// exported struct that counts as configuration.
func structKnobs(dir string, spec ast.Spec, targets map[string]bool) []string {
	ts, ok := spec.(*ast.TypeSpec)
	if !ok || !ts.Name.IsExported() {
		return nil
	}
	st, ok := ts.Type.(*ast.StructType)
	name := ts.Name.Name
	if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || targets[name]) {
		return nil
	}
	var lines []string
	for _, field := range st.Fields.List {
		typ := expr(field.Type)
		if len(field.Names) == 0 {
			lines = append(lines, dir+" "+name+"."+strings.TrimPrefix(typ, "*")+" (embedded)")
		}
		for _, n := range field.Names {
			if n.IsExported() {
				lines = append(lines, dir+" "+name+"."+n.Name+" "+typ)
			}
		}
	}
	return lines
}

// optionTargets returns the names T for which the package declares a
// functional option type `type X func(*T)`.
func optionTargets(files []*ast.File) map[string]bool {
	m := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				ft, ok := ts.Type.(*ast.FuncType)
				if !ok || ft.Params.NumFields() != 1 || ft.Results.NumFields() != 0 {
					continue
				}
				if star, ok := ft.Params.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok {
						m[id.Name] = true
					}
				}
			}
		}
	}
	return m
}

// expr prints a type expression on one line, as gofmt would.
func expr(e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return b.String()
}
