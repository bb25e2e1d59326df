// Package wirecheck guards the serialized boundaries: the regshared
// service's observability records (RequestMetrics, MetricsSnapshot),
// the result store envelope and the report types all round-trip
// through encoding/json, and their field layout is a compatibility
// contract.
// A struct opts in with
//
//	//repro:wire
//
// in its doc comment, which demands an explicit `json:"..."` tag on
// every exported field — an untagged field silently changes the wire
// name when someone renames it, and a forgotten tag is indistinguishable
// from a deliberate default. Unexported fields in a wire struct are
// flagged too (encoding/json skips them without a word; if the field is
// deliberately in-memory-only, say so with `//repro:allow wirecheck`).
//
// Independent of the directive, the analyzer flags unkeyed composite
// literals of any json-tagged struct type, everywhere including tests:
// positional literals are exactly the construct that breaks silently
// when a wire struct gains a field.
package wirecheck

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Directive is the doc-comment marker opting a struct into the wire
// contract.
const Directive = "wire"

// Analyzer is the wirecheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "wirecheck",
	Doc: "wire structs need complete json tags and keyed literals. " +
		"Structs marked //repro:wire must json-tag every exported field, and " +
		"unkeyed composite literals of json-tagged structs are forbidden " +
		"everywhere: both break the serialized contract silently on rename " +
		"or field insertion.",
	Run:        run,
	NeedsTypes: true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkWireStructs(pass, file)
		checkUnkeyedLiterals(pass, file)
	}
	return nil
}

// checkWireStructs validates //repro:wire-marked struct declarations.
func checkWireStructs(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			doc := ts.Doc
			if doc == nil {
				doc = gd.Doc
			}
			if !analysis.HasDirective(doc, Directive) {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				pass.Reportf(ts.Pos(), "//repro:wire on %s, which is not a struct type", ts.Name.Name)
				continue
			}
			checkFields(pass, ts.Name.Name, st)
		}
	}
}

func checkFields(pass *analysis.Pass, name string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		names := field.Names
		if len(names) == 0 {
			// Embedded field: its exported fields flatten into the wire
			// representation, so it needs a tag (or promotion is intended —
			// then tag it explicitly anyway to make that a decision).
			if !hasJSONTag(field) {
				pass.Reportf(field.Pos(), "wire struct %s embeds an untagged field: its promoted fields reach the wire under implicit names", name)
			}
			continue
		}
		for _, fn := range names {
			if !fn.IsExported() {
				pass.Reportf(fn.Pos(), "wire struct %s has unexported field %s: encoding/json silently drops it (annotate //repro:allow wirecheck if it is deliberately in-memory only)", name, fn.Name)
				continue
			}
			if !hasJSONTag(field) {
				pass.Reportf(fn.Pos(), "wire struct %s field %s has no json tag: the wire name is coupled to the Go identifier", name, fn.Name)
			}
		}
	}
}

// hasJSONTag reports whether the field carries a non-empty `json:` tag.
func hasJSONTag(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return false
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	return ok && tag != ""
}

// checkUnkeyedLiterals flags positional composite literals of
// json-tagged struct types, in any package including tests.
func checkUnkeyedLiterals(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			return true
		}
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
			return true
		}
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok || tv.Type == nil {
			return true
		}
		st, ok := tv.Type.Underlying().(*types.Struct)
		if !ok || !isJSONTagged(st) {
			return true
		}
		pass.Reportf(lit.Pos(), "unkeyed composite literal of wire struct %s: positional fields silently misalign when the struct grows (use field: value)", typeName(tv.Type))
		return true
	})
}

// isJSONTagged reports whether any field of the struct carries a json
// tag — the signature of a type that crosses a serialized boundary.
func isJSONTagged(st *types.Struct) bool {
	for i := range st.NumFields() {
		if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "" {
			return true
		}
	}
	return false
}

// typeName renders a short name for diagnostics.
func typeName(t types.Type) string {
	s := t.String()
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
