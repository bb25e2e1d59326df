// Package sinkcheck makes sure serialization errors are not silently
// dropped at the repository's output boundaries. The -json reports, the
// drain summary and the line-per-record span files in this codebase
// funnel through json.Encoder.Encode (or a method of the same shape);
// an ignored Encode error means truncated output, and a span file cut
// between records still parses as a shorter, valid one — the worst
// kind of corruption, because nothing fails.
//
// The rule: an expression statement (or go/defer statement) whose value
// is a call to a function or method named Encode, EncodeEvent or Emit
// returning an error discards that error, and is flagged. Explicitly
// assigning to blank (`_ = enc.Encode(v)`) is visible intent and
// passes; so does capturing into a variable, whatever is done with it
// afterwards (errcheck-style dataflow is out of scope). Test files are
// exempt.
package sinkcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the sinkcheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "sinkcheck",
	Doc: "encoder and event-sink errors must be handled. " +
		"A dropped Encode error turns a failed write into a silently " +
		"truncated-but-valid output stream; capture it, or assign to blank " +
		"to make the drop explicit.",
	Run:        run,
	NeedsTypes: true,
}

// sinkMethodNames are the callee names treated as serialization sinks.
var sinkMethodNames = map[string]bool{
	"Encode":      true,
	"EncodeEvent": true,
	"Emit":        true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = n.Call
			case *ast.DeferStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			if name, ok := droppedSinkError(pass, call); ok {
				pass.Reportf(call.Pos(), "%s error dropped: a failed write leaves a truncated stream that still parses (capture the error, or `_ =` to drop it on purpose)", name)
			}
			return true
		})
	}
	return nil
}

// droppedSinkError reports whether the call is a sink call whose error
// result is being discarded, returning the callee name for the message.
func droppedSinkError(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if !sinkMethodNames[name] {
		return "", false
	}
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return "", false
	}
	results := sig.Results()
	if results.Len() == 0 {
		return "", false
	}
	last := results.At(results.Len() - 1).Type()
	if !types.Implements(last, errorInterface) {
		return "", false
	}
	return name, true
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
