package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// auditedPackages are the directories whose exported identifiers must
// all carry doc comments — the packages this repo's docs pass gates.
var auditedPackages = []string{".", "../sim"}

// TestExportedIdentifiersDocumented fails on any exported top-level
// identifier without a doc comment in the audited packages.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range auditedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				auditFile(t, fset, f)
			}
		}
	}
}

func auditFile(t *testing.T, fset *token.FileSet, f *ast.File) {
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		t.Errorf("%s:%d: exported %s has no doc comment", filepath.Base(p.Filename), p.Line, name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					// A const/var group is fine with one group-level
					// comment; individual specs may document instead.
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), n.Name)
						}
					}
				}
			}
		}
	}
}
