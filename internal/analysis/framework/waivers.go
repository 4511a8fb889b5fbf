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
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//detcheck:")
				if !ok {
					continue
				}
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					rest = rest[:i]
				}
				pos := fset.Position(c.Pos())
				out = append(out, Directive{Name: rest, File: pos.Filename, Line: pos.Line})
			}
		}
	}
	return out
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
