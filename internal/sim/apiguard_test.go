package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxfirst"
)

// TestContextFirstEntryPoints is the API-regression guard: every
// exported Run*/Stream*/MustRun* entry point in the execution-spine
// packages must take a context.Context as its first parameter. The
// check itself is the ctxfirst analyzer — the same one `go vet
// -vettool=repolint` runs in CI — driven here over freshly parsed (not
// type-checked) trees, so the guard still fires in a plain `go test
// ./...` with no vet step. The analyzer owns the allowlist of
// sanctioned background-context shims; this test only maps directories
// to import paths and checks that the scan sees exactly the entry
// points the API has, so a scan that misses one fails.
func TestContextFirstEntryPoints(t *testing.T) {
	// Directories forming the execution spine, with the import path the
	// analyzer scopes on.
	spine := []struct {
		dir  string
		path string
	}{
		{"../../", "repro"},
		{".", "repro/internal/sim"},
		{"../dispatch", "repro/internal/dispatch"},
		{"../scenario", "repro/internal/scenario"},
		{"../experiments", "repro/internal/experiments"},
		{"../core", "repro/internal/core"},
	}

	want := []string{
		"core.Core.Run", "core.Core.RunContext",
		"regshare.MustRun", "regshare.Run", "regshare.RunContext", "regshare.StreamSpecs",
		"scenario.Matrix.Run",
		"sim.Runner.Run", "sim.Runner.Stream",
	}
	var found []string
	for _, sp := range spine {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, sp.dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", sp.dir, err)
		}
		for _, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && ctxfirst.IsEntryPoint(fn) {
						found = append(found, funcName(pkg.Name, fn))
					}
				}
			}
			findings, err := analysis.Run(fset, files, sp.path, nil, nil,
				[]*analysis.Analyzer{ctxfirst.Analyzer})
			if err != nil {
				t.Fatalf("%s: %v", sp.path, err)
			}
			for _, f := range findings {
				t.Errorf("%s", f)
			}
		}
	}
	slices.Sort(found)
	if !slices.Equal(found, want) {
		t.Fatalf("guard saw the entry points %q, want %q", found, want)
	}
}

// funcName names fn as pkg.Func, or pkg.Type.Method for a method.
func funcName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	return pkg + "." + types.ExprString(typ) + "." + fn.Name.Name
}
