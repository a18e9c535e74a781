package gunfu_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const module = "github.com/gunfu-nfv/gunfu"

// TestImportLayering guards the module's layering, read from import
// clauses alone: only the control-plane binaries, the distributed
// example and the benchmark's cluster workload import internal/director,
// and internal/deploy — what every other caller builds deployables
// through — reaches neither the control plane, nor its fault injector,
// nor the observability stack. No non-test file outside cmd/ imports an
// HTTP or RPC server package: only a command that serves one should pay
// for mapping it, and cmd/gunfu-worker is the one that does.
func TestImportLayering(t *testing.T) {
	// deps holds each package's module imports from its non-test files;
	// importers each module package's importers, test files included.
	deps := map[string][]string{}
	importers := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(filepath.ToSlash(path), "cmd/") && servesNet(imp) {
				t.Errorf("%s imports %s: only commands under cmd/ may link an HTTP or RPC server", path, imp)
			}
			if imp == pkg || !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if !slices.Contains(importers[imp], pkg) {
				importers[imp] = append(importers[imp], pkg)
			}
			if !strings.HasSuffix(name, "_test.go") && !slices.Contains(deps[pkg], imp) {
				deps[pkg] = append(deps[pkg], imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got := importers[module+"/internal/director"]
	slices.Sort(got)
	want := []string{
		module + "/bench",
		module + "/cmd/gunfu-director",
		module + "/cmd/gunfu-worker",
		module + "/examples/distributed",
	}
	if !slices.Equal(got, want) {
		t.Errorf("internal/director is imported by\n  %s\nwant exactly\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}

	// Every package internal/deploy reaches through its non-test files.
	reach := map[string]bool{}
	var walk func(pkg string)
	walk = func(pkg string) {
		for _, d := range deps[pkg] {
			if !reach[d] {
				reach[d] = true
				walk(d)
			}
		}
	}
	walk(module + "/internal/deploy")
	if len(reach) == 0 {
		t.Fatal("internal/deploy imports no module package: the walk found no sources")
	}
	for _, banned := range []string{"internal/director", "internal/faultnet", "internal/obs"} {
		if reach[module+"/"+banned] {
			t.Errorf("internal/deploy depends on %s", banned)
		}
	}
}

// servesNet reports whether imp is a standard-library HTTP or RPC
// server package (net/http, net/rpc and their subpackages, expvar).
func servesNet(imp string) bool {
	for _, p := range []string{"net/http", "net/rpc"} {
		if imp == p || strings.HasPrefix(imp, p+"/") {
			return true
		}
	}
	return imp == "expvar"
}
