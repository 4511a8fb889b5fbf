// Package framework is a minimal reimplementation of the parts of
// golang.org/x/tools/go/analysis that the detcheck analyzers need,
// built only on the standard library so the repository stays
// dependency-free. The API mirrors go/analysis deliberately: an
// Analyzer bundles a name, doc string and a Run function; a Pass hands
// Run one type-checked package and a Report sink. The analyzers take
// no options: their scopes and allowlists are package constants.
//
// Escape hatches: every detcheck analyzer honors a `//detcheck:<name>`
// directive comment placed on the flagged line or the line directly
// above it. Directives are deliberate, reviewable annotations — the
// analyzers report everything else.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string

	// Doc is the one-paragraph help text.
	Doc string

	// WaiverNames lists the `//detcheck:<name>` keys this analyzer
	// honors; empty means exactly {Name}. Analyzers with historical or
	// per-finding-kind keys (maporder→ordered, simspawn→spawn) declare
	// them here so the waiver audit knows the full vocabulary.
	WaiverNames []string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// WaiverKeys returns the waiver vocabulary: WaiverNames, defaulting
// to the analyzer name.
func (a *Analyzer) WaiverKeys() []string {
	if len(a.WaiverNames) > 0 {
		return a.WaiverNames
	}
	return []string{a.Name}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps positions for all Files.
	Fset *token.FileSet

	// Files are the package's parsed syntax trees (with comments).
	Files []*ast.File

	// PkgPath is the package's import path. Analyzers use it to scope
	// themselves (e.g. wallclock applies only under internal/).
	PkgPath string

	// Pkg and TypesInfo carry type information. TypesInfo is always
	// non-nil; with a broken package its maps may be partial.
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// CallGraph is the interprocedural layer: the package-set call
	// graph, which also memoizes whole-program results. Both drivers
	// (cmd/smartds-vet and analysistest) always set it.
	CallGraph *CallGraph

	// Audit, when set, records which waiver directives actually
	// suppressed findings.
	Audit *WaiverAudit

	// directives maps each (file, covered line, name) to the directive
	// that covers it.
	directives map[directiveKey]directiveKey
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a `//detcheck:<name>` directive covers the
// given position: a trailing directive (code before it on its line)
// covers only its own line, and a directive on a line of its own
// covers only the line below it. When an Audit is attached, a matching
// directive is recorded as used.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	if p.directives == nil {
		p.directives = make(map[directiveKey]directiveKey)
		for _, d := range Directives(p.Fset, p.Files) {
			p.directives[directiveKey{d.File, d.covers(), d.Name}] = directiveKey{d.File, d.Line, d.Name}
		}
	}
	at := p.Fset.Position(pos)
	d, ok := p.directives[directiveKey{at.Filename, at.Line, name}]
	if ok && p.Audit != nil {
		p.Audit.used[d] = true
	}
	return ok
}

// SourceFiles returns the package's files other than _test.go files:
// the analyzers that guard what the simulator runs skip test code,
// where pinning GOMAXPROCS, comparing floats exactly or draining a
// channel is the point of the test.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// TypeOf returns the type of an expression, or nil when unknown (for
// example inside a package with type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// StaticCallee resolves the *types.Func a direct call names, nil for
// calls through function values and interface-free builtins.
func StaticCallee(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				return sel.Obj().(*types.Func)
			}
			return nil
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// PathHasSegments reports whether slash-separated path contains the
// given (possibly multi-segment) subsequence on segment boundaries
// (e.g. "a/internal/storage/ssd" contains "internal/storage" but
// "a/internal/storagex" does not).
func PathHasSegments(path, sub string) bool {
	return path == sub ||
		strings.HasPrefix(path, sub+"/") ||
		strings.HasSuffix(path, "/"+sub) ||
		strings.Contains(path, "/"+sub+"/")
}

// PathHasSuffixSegments reports whether path ends in the given
// slash-separated suffix on a segment boundary (e.g. "x/internal/rng"
// ends with "internal/rng" but "x/notinternal/rng" does not).
func PathHasSuffixSegments(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// SortDiagnostics orders diagnostics by position, then message, for
// stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Message < ds[j].Message
	})
}
