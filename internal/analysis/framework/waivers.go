// Waiver audit: `//detcheck:<name>` directives are deliberate,
// reviewable suppressions — and like all suppressions they rot. A
// directive naming an analyzer that does not exist, or one that no
// longer suppresses any finding, silently blesses nothing (or worse,
// the wrong thing). The audit collects every suppression hit across a
// run, so the driver can fail on unknown and never-firing waivers.
package framework

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //detcheck: comment: its waiver key (an
// analyzer's waiver name, e.g. "wallclock", "ordered", "hotalloc") and
// where it sits. Text after the key is the reason and is not parsed.
type Directive struct {
	Name string
	File string
	Line int
	// Trailing is set when code precedes the directive on its line.
	Trailing bool
}

// covers returns the one line whose findings the directive waives: a
// trailing directive covers its own line, a directive on a line of its
// own covers the next line.
func (d Directive) covers() int {
	if d.Trailing {
		return d.Line
	}
	return d.Line + 1
}

type directiveKey struct {
	file string
	line int
	name string
}

// Directives parses every //detcheck: comment in the files.
func Directives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		var code map[int]int
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//detcheck:")
				if !ok {
					continue
				}
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					rest = rest[:i]
				}
				if code == nil {
					code = codeColumns(fset, f)
				}
				pos := fset.Position(c.Pos())
				col, ok := code[pos.Line]
				out = append(out, Directive{Name: rest, File: pos.Filename, Line: pos.Line,
					Trailing: ok && col < pos.Column})
			}
		}
	}
	return out
}

// codeColumns maps each line of f that holds code to the leftmost
// column where a syntax node starts or ends on it.
func codeColumns(fset *token.FileSet, f *ast.File) map[int]int {
	cols := map[int]int{}
	note := func(p token.Pos) {
		at := fset.Position(p)
		if c, ok := cols[at.Line]; !ok || at.Column < c {
			cols[at.Line] = at.Column
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup:
			return false
		}
		note(n.Pos())
		note(n.End())
		return true
	})
	return cols
}

// WaiverAudit accumulates suppression hits across every pass of a
// driver run. Pass.Suppressed records into it when attached.
type WaiverAudit struct {
	used map[directiveKey]bool
}

// NewWaiverAudit returns an empty audit.
func NewWaiverAudit() *WaiverAudit {
	return &WaiverAudit{used: map[directiveKey]bool{}}
}

// Used reports whether the directive suppressed at least one finding
// during the run.
func (w *WaiverAudit) Used(d Directive) bool {
	return w.used[directiveKey{d.File, d.Line, d.Name}]
}
