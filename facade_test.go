package gunfu_test

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

// TestFacadeExportsHaveCallers holds gunfu.go to the names its callers
// use: every exported name must be selected as gunfu.<Name> somewhere
// in examples/, cmd/, bench/ or a root test file, or appear in the
// signature of a name that is.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "gunfu.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// decls maps each exported name to the syntax its callers see: a
	// function's signature, a type's definition, a constant's type.
	decls := map[string]ast.Node{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[n.Name] = s.Type
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("gunfu.go declares no exported names")
	}

	used := map[string]bool{}
	scan := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == module {
				local = "gunfu"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	}
	roots, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if err := scan(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			if e.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			return scan(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(used) == 0 {
		t.Fatal("no caller selects a gunfu name: the scan found no sources")
	}

	// A used name keeps the facade names in its signature (the alias a
	// kept function takes or returns), and those keep theirs in turn.
	for grew := true; grew; {
		grew = false
		for name := range used {
			node := decls[name]
			if node == nil {
				continue
			}
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // pkg.Name names an internal package's type
				case *ast.Ident:
					if _, facade := decls[n.Name]; facade && !used[n.Name] {
						used[n.Name] = true
						grew = true
					}
				}
				return true
			})
		}
	}
	for name := range decls {
		if !used[name] {
			t.Errorf("gunfu.%s has no caller in examples/, cmd/, bench/ or the root tests: delete it from gunfu.go", name)
		}
	}
}
