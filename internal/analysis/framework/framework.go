// Package framework is the dependency-free core of the repo's
// contract-enforcing static-analysis suite, which TestContracts in
// internal/analysis runs over every package on each `go test`. It
// reimplements the small slice of golang.org/x/tools/go/analysis the
// suite needs — Analyzer, Pass, diagnostics, a package loader and
// suppression directives — on the standard library alone (go/ast,
// go/types, go/importer), so the main module stays dependency-free,
// matching internal/metrics and internal/tracing.
//
// # Analyzers
//
// An Analyzer inspects one type-checked package at a time and reports
// diagnostics through its Pass. Analyzers are purely intra-package: no
// facts flow between packages, which keeps the analyses
// order-independent.
//
// # Suppression directives
//
// A finding can be waived at a call site that deliberately breaks a
// contract — the waiver is part of the contract's documentation:
//
//	//hotpathsvet:ignore locksnapshot flush barrier: queues quiesce under the write lock by design
//	e.shards[i].ch <- msg{flush: ack}
//
// The directive names one analyzer (or a comma-separated list, or "all")
// and MUST carry a reason after the names; a bare directive is itself
// reported. It applies to findings on its own line or the line directly
// below, mirroring //lint:ignore.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one contract check. Doc states the contract it
// enforces — the prose that used to live only in CHANGES.md and review
// comments.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string

	// Doc is the contract statement.
	Doc string

	// Run inspects one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the standard vet shape editors parse:
// file:line:col: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies each analyzer to the package and returns the
// surviving findings: suppressed ones are dropped, and malformed ignore
// directives (no reason) are themselves reported. Findings come back
// sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs, bad := collectDirectives(pkg.Fset, pkg.Files)
	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range pass.diags {
			if !dirs.suppresses(a.Name, d.Pos) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "hotpathsvet:ignore"

// directive is one parsed //hotpathsvet:ignore comment.
type directive struct {
	names map[string]bool // analyzer names, or {"all": true}
	file  string
	line  int
}

type directives []directive

// suppresses reports whether any directive covers the finding: same
// file, on the directive's line or the line directly below it.
func (ds directives) suppresses(analyzer string, pos token.Position) bool {
	for _, d := range ds {
		if d.file != pos.Filename {
			continue
		}
		if pos.Line != d.line && pos.Line != d.line+1 {
			continue
		}
		if d.names["all"] || d.names[analyzer] {
			return true
		}
	}
	return false
}

// collectDirectives parses every suppression comment in the package.
// Directives without a reason are returned as findings — an unexplained
// waiver defeats the point of machine-checked contracts.
func collectDirectives(fset *token.FileSet, files []*ast.File) (directives, []Diagnostic) {
	var ds directives
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "framework",
						Pos:      pos,
						Message:  "hotpathsvet:ignore directive needs an analyzer name and a reason: //hotpathsvet:ignore <analyzer> <why this site is exempt>",
					})
					continue
				}
				names := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					names[strings.TrimSpace(n)] = true
				}
				ds = append(ds, directive{names: names, file: pos.Filename, line: pos.Line})
			}
		}
	}
	return ds, bad
}

// ---- shared type-aware helpers -------------------------------------------

// ErrorType is the built-in error interface.
var ErrorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorErrorCall reports whether e is a call of the error interface's
// Error() method — `err.Error()` for any err whose type implements error.
func IsErrorErrorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	if basic, ok := sig.Results().At(0).Type().(*types.Basic); !ok || basic.Kind() != types.String {
		return false
	}
	return types.Implements(sig.Recv().Type(), ErrorType)
}

// Callee resolves the static callee of a call, or nil for dynamic calls
// (function values, interface methods resolve to the interface method).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsPkgFunc reports whether fn is the named function of the package with
// the given import path (exact, or a path ending in "/"+path so fixture
// and vendored copies match).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// RecvNamed returns the named type of fn's receiver (de-pointered), or
// nil when fn has none.
func RecvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethodOf reports whether fn is a method named methodName on a type
// named typeName defined in a package whose name is pkgName. Matching by
// package NAME (not path) lets analyzers recognise both the real
// internal packages and their analyzertest fixture stand-ins.
func IsMethodOf(fn *types.Func, pkgName, typeName, methodName string) bool {
	if fn == nil || fn.Name() != methodName {
		return false
	}
	named := RecvNamed(fn)
	if named == nil || named.Obj().Name() != typeName {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == pkgName
}
