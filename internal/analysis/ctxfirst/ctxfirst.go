// Package ctxfirst enforces the context-first execution API contract of
// docs/API.md: every public Run*/Stream*/MustRun* entry point in the
// execution-spine packages must take a context.Context as its first
// parameter. It is the analyzer form of the AST grep that used to live
// in internal/sim/apiguard_test.go (and the cheap shell grep in the CI
// docs job): one checker, run both by `go vet -vettool=repolint` over
// the real tree and by the thin apiguard test, so a context-free
// fire-and-forget entry point cannot regrow anywhere.
package ctxfirst

import (
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the ctxfirst checker. It is AST-only (NeedsTypes false),
// so the apiguard test can run it over parsed-but-untyped packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc: "public Run/Stream entry points must take a context.Context first. " +
		"The execution API is context-first by design: cancellation has to reach " +
		"the core cycle loop from every public surface, so an entry point without " +
		"a leading ctx is a fire-and-forget API regression.",
	Run: run,
}

// spinePackages are the execution-spine import paths the contract
// covers: the public regshare API (module root), the runner, remote
// execution, the scenario engine, the experiment harness and the
// core's run loop.
var spinePackages = map[string]bool{
	"repro":                      true,
	"repro/internal/sim":         true,
	"repro/internal/dispatch":    true,
	"repro/internal/scenario":    true,
	"repro/internal/experiments": true,
	"repro/internal/core":        true,
}

// allowed lists the sanctioned context-free shims, as package-qualified
// names. Each is a thin wrapper over a context-first sibling.
var allowed = map[string]bool{
	"regshare.Run":     true, // shim over RunContext
	"regshare.MustRun": true, // shim over Run
	"core.Core.Run":    true, // shim over RunContext
}

// IsEntryPoint reports whether fn is a public Run*/Stream*/MustRun*
// entry point under the contract: an exported function, or an exported
// method on an exported receiver type. The apiguard test shares it to
// sanity-check that the scan still sees the API.
func IsEntryPoint(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	name := fn.Name.Name
	if name == "Runner" { // accessor, not an entry point
		return false
	}
	if !strings.HasPrefix(name, "Run") && !strings.HasPrefix(name, "Stream") && !strings.HasPrefix(name, "MustRun") {
		return false
	}
	if recv := recvTypeName(fn); recv != "" && !ast.IsExported(recv) {
		return false // a method on an unexported type is not public API
	}
	return true
}

func run(pass *analysis.Pass) error {
	if !spinePackages[pass.Path] {
		return nil
	}
	for _, file := range pass.Files {
		pkgName := file.Name.Name
		if strings.HasSuffix(pkgName, "_test") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !IsEntryPoint(fn) {
				continue
			}
			if analysis.IsTestFile(pass.Fset, fn.Pos()) {
				continue
			}
			if allowed[qualify(pkgName, fn)] {
				continue
			}
			if !firstParamIsContext(fn) {
				pass.Reportf(fn.Pos(), "%s is a public Run entry point without a leading context.Context", qualify(pkgName, fn))
			}
		}
	}
	return nil
}

// recvTypeName returns the receiver's base type name, or "".
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// qualify names a method as pkg.Recv.Name, a function as pkg.Name.
func qualify(pkgName string, fn *ast.FuncDecl) string {
	if recv := recvTypeName(fn); recv != "" {
		return pkgName + "." + recv + "." + fn.Name.Name
	}
	return pkgName + "." + fn.Name.Name
}

// firstParamIsContext reports whether fn's first parameter is typed
// context.Context.
func firstParamIsContext(fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil || len(fn.Type.Params.List) == 0 {
		return false
	}
	sel, ok := fn.Type.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context" && sel.Sel.Name == "Context"
}
