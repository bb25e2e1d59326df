// Package nodeterm polices the determinism contract of the
// result-producing packages (internal/core, internal/sim,
// internal/scenario, internal/dispatch): the paper's sharing schemes
// are validated by exact cycle counts, and the store, the dispatch wire
// and the reports all assume a request's outcome is a pure function of
// the request. Three things silently break that:
//
//   - wall-clock reads (time.Now / time.Since) leaking into values;
//     measurement code that genuinely wants the clock annotates the
//     line with `//repro:allow nodeterm -- <why>`, which turns hidden
//     nondeterminism into a reviewed, documented exception;
//   - math/rand anywhere outside internal/rng, the repository's single
//     seeded-determinism choke point;
//   - map iteration whose order can reach an output: a range over a map
//     that prints/encodes per element, that collects elements into a
//     slice which is never sorted afterwards, or that returns a value
//     depending on which key came up first.
package nodeterm

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer is the nodeterm checker.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc: "forbid nondeterminism in result-producing packages. " +
		"Wall-clock reads, math/rand outside internal/rng and map iteration " +
		"feeding outputs all make bit-identical reproduction impossible to " +
		"guarantee structurally.",
	Run:        run,
	NeedsTypes: true,
}

// resultPackages are the import paths under the determinism contract.
var resultPackages = map[string]bool{
	"repro/internal/core":      true,
	"repro/internal/sim":       true,
	"repro/internal/scenario":  true,
	"repro/internal/dispatch":  true,
	"repro/internal/fleet":     true,
	"repro/internal/workloads": true,
	"repro/internal/objstore":  true,
	"repro/internal/cliflags":  true,
}

// rngPackage is the one sanctioned home for seeded randomness.
const rngPackage = "repro/internal/rng"

// sinkNames are call names that move data toward a serialized output:
// the fmt print family, encoders and marshalers, raw writes, and the
// stats.Table row builders every report in this repository renders
// through.
var sinkNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Encode": true, "Marshal": true, "MarshalIndent": true,
	"Write": true, "WriteString": true,
	"AddRow": true, "AddRowF": true,
}

func run(pass *analysis.Pass) error {
	if !resultPackages[pass.Path] {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		checkImports(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkImports flags math/rand (v1 and v2) imports.
func checkImports(pass *analysis.Pass, file *ast.File) {
	if pass.Path == rngPackage {
		return
	}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "import of %s outside internal/rng: all randomness must flow through the seeded determinism choke point", path)
		}
	}
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := timeCall(pass, n); ok {
				pass.Reportf(n.Pos(), "time.%s in a result-producing package: wall-clock values are nondeterministic (annotate //repro:allow nodeterm if this is measurement metadata)", name)
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		}
		return true
	})
}

// timeCall reports whether call is time.Now or time.Since.
func timeCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return "", false
	}
	if name := obj.Name(); name == "Now" || name == "Since" {
		return name, true
	}
	return "", false
}

// checkMapRange applies the three map-iteration-order rules to one
// range statement.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	// Rule 1: a sink call inside the body serializes per-element, so the
	// output inherits the iteration order directly.
	var sink *ast.CallExpr
	// Rule 2: elements collected into a slice keep the iteration order
	// unless the function sorts the slice after the loop.
	var appends []*ast.CallExpr
	// Rule 3: returning from inside the loop publishes whichever element
	// the runtime happened to visit first.
	var depReturn *ast.ReturnStmt

	loopVars := rangeVarObjects(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := calleeName(n); sinkNames[name] && sink == nil {
				sink = n
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if obj, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && obj.Name() == "append" {
					appends = append(appends, n)
				}
			}
		case *ast.ReturnStmt:
			if depReturn == nil && len(n.Results) > 0 && usesAny(pass, n, loopVars) {
				depReturn = n
			}
		}
		return true
	})

	switch {
	case sink != nil:
		pass.Reportf(rng.Pos(), "map iteration feeds %s: output order follows the map's randomized iteration order (sort the keys first)", calleeName(sink))
	case depReturn != nil:
		pass.Reportf(rng.Pos(), "return inside a map iteration depends on which element is visited first: the result is nondeterministic (iterate a sorted or fixed order instead)")
	case len(appends) > 0 && !sortsAfter(pass, fn, rng):
		pass.Reportf(rng.Pos(), "map iteration collects elements into a slice that is never sorted afterwards: downstream consumers see a randomized order")
	}
}

// rangeVarObjects returns the objects defined by the range clause's
// key/value variables.
func rangeVarObjects(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil { // `=` instead of `:=`
				out[obj] = true
			}
		}
	}
	return out
}

// usesAny reports whether the subtree references any of the objects.
func usesAny(pass *analysis.Pass, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// sortsAfter reports whether fn calls into sort or slices after the
// loop ends — the sanctioned collect-then-sort shape, which
// slices.Sorted(maps.Keys(m)) writes in one expression (see
// internal/scenario/metric.go).
func sortsAfter(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel]
		if !ok || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p == "sort" || p == "slices" {
			sorted = true
		}
		return !sorted
	})
	return sorted
}

// calleeName extracts the called function or method's bare name.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
