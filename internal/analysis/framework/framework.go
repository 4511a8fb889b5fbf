// Package framework is a minimal reimplementation of the parts of
// golang.org/x/tools/go/analysis that the detcheck analyzers need,
// built only on the standard library so the repository stays
// dependency-free. The API mirrors go/analysis deliberately: an
// Analyzer bundles a name, doc string, flags and a Run function; a Pass
// hands Run one type-checked package and a Report sink. If the x/tools
// dependency ever becomes available, the analyzers port over by
// swapping this import.
//
// Escape hatches: every detcheck analyzer honors a `//detcheck:<name>`
// directive comment placed on the flagged line or the line directly
// above it. Directives are deliberate, reviewable annotations — the
// analyzers report everything else.
package framework

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and command-line
	// flags. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph help text.
	Doc string

	// Flags holds analyzer-specific flags. The multichecker registers
	// them with a "<name>." prefix.
	Flags flag.FlagSet

	// WaiverNames lists the `//detcheck:<name>` keys this analyzer
	// honors; empty means exactly {Name}. Analyzers with historical or
	// per-finding-kind keys (maporder→ordered, floatacc→floateq,
	// simspawn→spawn) declare them here so the waiver audit knows the
	// full vocabulary.
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

// String returns the analyzer's name.
func (a *Analyzer) String() string { return a.Name }

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

	// CallGraph and Summaries carry the interprocedural layer: the
	// package-set call graph and the shared whole-program fact store.
	// Both drivers (cmd/smartds-vet and analysistest) always set them.
	CallGraph *CallGraph
	Summaries *Summaries

	// Audit, when set, records which waiver directives actually
	// suppressed findings (the -waiver-audit satellite).
	Audit *WaiverAudit

	directives map[directiveKey]bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

type directiveKey struct {
	file string
	line int
	name string
}

// buildDirectives indexes `//detcheck:<name>` comments by file and
// line so Suppressed can answer in O(1).
func (p *Pass) buildDirectives() {
	p.directives = make(map[directiveKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "detcheck:") {
					continue
				}
				rest := strings.TrimPrefix(text, "detcheck:")
				// Allow trailing justification: //detcheck:ordered keys sorted below
				name := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					name = rest[:i]
				}
				pos := p.Fset.Position(c.Pos())
				p.directives[directiveKey{pos.Filename, pos.Line, name}] = true
			}
		}
	}
}

// Suppressed reports whether a `//detcheck:<name>` directive covers the
// given position: the directive may sit on the same line (trailing
// comment) or on the line immediately above the flagged construct.
// When an Audit is attached, a matching directive is recorded as used.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	if p.directives == nil {
		p.buildDirectives()
	}
	at := p.Fset.Position(pos)
	for _, line := range []int{at.Line, at.Line - 1} {
		if p.directives[directiveKey{at.Filename, line, name}] {
			if p.Audit != nil {
				p.Audit.markUsed(at.Filename, line, name)
			}
			return true
		}
	}
	return false
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

// PathHasSegment reports whether slash-separated path contains the
// given segment (e.g. PathHasSegment("a/internal/b", "internal")).
func PathHasSegment(path, segment string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == segment {
			return true
		}
	}
	return false
}

// PathHasSegments reports whether slash-separated path contains the
// given multi-segment subsequence on segment boundaries (e.g.
// "a/internal/storage/ssd" contains "internal/storage" but
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
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// SortDiagnostics orders diagnostics by position for stable output.
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
