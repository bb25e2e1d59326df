// Package errtaxonomy enforces the error-taxonomy contract of the
// public API: the sim package exports sentinel errors
// (ErrUnknownBenchmark, ErrBadConfig, ErrCanceled) and promises callers
// can classify any returned error with errors.Is — which only holds if
// every layer in between wraps with %w and never compares errors by
// identity. Two constructs break the chain:
//
//   - `err == someErr` / `err != someErr` on error-typed operands:
//     identity comparison sees only the outermost wrapper, so a
//     perfectly classified error slips past the check (dispatch's
//     worker loop once compared ==io.EOF and missed wrapped EOFs);
//   - fmt.Errorf passing an error argument through a non-%w verb: the
//     message survives but the sentinel is severed from the chain.
//
// Comparisons against nil are idiomatic and exempt. Deliberate identity
// checks (comparing against a just-created local, say) take a
// `//repro:allow errtaxonomy -- <why>` on the line.
package errtaxonomy

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errtaxonomy checker.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc: "errors must stay classifiable with errors.Is. " +
		"Forbids ==/!= on error values (use errors.Is) and fmt.Errorf calls " +
		"that pass an error through a non-%w verb, both of which sever the " +
		"wrap chain the exported sentinels depend on.",
	Run:        run,
	NeedsTypes: true,
}

// scope lists the import paths under the taxonomy contract: the public
// API surface and every package that forwards its errors.
var scope = map[string]bool{
	"repro":                      true,
	"repro/internal/sim":         true,
	"repro/internal/scenario":    true,
	"repro/internal/dispatch":    true,
	"repro/internal/fleet":       true,
	"repro/internal/workloads":   true,
	"repro/internal/experiments": true,
	"repro/internal/objstore":    true,
	"repro/internal/cliflags":    true,
}

func inScope(path string) bool {
	return scope[path] || strings.HasPrefix(path, "repro/cmd/")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.CallExpr:
				checkErrorf(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkComparison flags ==/!= where both operands are error-typed and
// neither is nil.
func checkComparison(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	if isNilExpr(pass, bin.X) || isNilExpr(pass, bin.Y) {
		return
	}
	if !isErrorType(pass, bin.X) || !isErrorType(pass, bin.Y) {
		return
	}
	verb := "errors.Is"
	if bin.Op == token.NEQ {
		verb = "!errors.Is"
	}
	pass.Reportf(bin.OpPos, "error compared with %s: identity misses wrapped errors, use %s", bin.Op, verb)
}

// checkErrorf flags fmt.Errorf calls where an error-typed argument is
// formatted by a verb other than %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" || obj.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := constantString(pass, call.Args[0])
	if !ok {
		return // dynamic format string; out of reach for a static check
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		if !isErrorType(pass, arg) {
			continue
		}
		if i >= len(verbs) {
			continue // fmt's own vet check owns arity mismatches
		}
		if verbs[i] != 'w' {
			pass.Reportf(arg.Pos(), "error formatted with %%%c severs the wrap chain: use %%w so errors.Is still sees the sentinel", verbs[i])
		}
	}
}

// constantString extracts a compile-time string value.
func constantString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		s, err := strconv.Unquote(lit.Value)
		if err == nil {
			return s, true
		}
	}
	s := tv.Value.ExactString()
	unq, err := strconv.Unquote(s)
	if err != nil {
		return "", false
	}
	return unq, true
}

// formatVerbs returns the final verb letter of each argument-consuming
// directive in a fmt format string, in order. Width/precision stars are
// not used in this repository and are not modeled.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision.
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}

// isErrorType reports whether the expression's type implements error
// (interface or concrete).
func isErrorType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorInterface) ||
		types.Implements(types.NewPointer(tv.Type), errorInterface)
}

// isNilExpr reports whether e is the untyped nil.
func isNilExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// errorInterface is the universe error type's underlying interface.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
