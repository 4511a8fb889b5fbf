// Package analysistest runs a framework.Analyzer against fixture
// packages under testdata/src and checks its diagnostics against
// `// want "regexp"` expectations, mirroring the conventions of
// golang.org/x/tools/go/analysis/analysistest on top of the stdlib-only
// framework in this repository.
//
// A fixture package lives at testdata/src/<importpath>/ and is
// type-checked under exactly that import path, so path-scoped
// analyzers (wallclock only fires under internal/, randsrc exempts
// internal/rng, ...) can be exercised with both firing and non-firing
// packages.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/analysis/framework"
	"github.com/disagg/smartds/internal/analysis/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each fixture package under testdata/src and applies the
// analyzer, comparing diagnostics with want expectations.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, path := range pkgpaths {
		runOne(t, testdata, a, path)
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runOne(t *testing.T, testdata string, a *framework.Analyzer, pkgpath string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
	l := load.NewLoader()
	pkgs, err := l.DirAs(dir, pkgpath)
	if err != nil {
		t.Fatalf("%s: loading fixture: %v", pkgpath, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("%s: no Go files in %s", pkgpath, dir)
	}
	// Build the interprocedural layer over the fixture's package set
	// (the library package plus its external test package, if any), the
	// same way the standalone driver does over the whole module.
	cg := framework.BuildCallGraph(pkgs)
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error in fixture: %v", pkgpath, terr)
		}
		var diags []framework.Diagnostic
		pass := &framework.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.PkgPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			CallGraph: cg,
			Report:    func(d framework.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Errorf("%s: analyzer %s failed: %v", pkgpath, a.Name, err)
			continue
		}
		framework.SortDiagnostics(pkg.Fset, diags)
		wants := collectWants(t, pkg.Fset, pkg.Files)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			if !matchWant(wants[key], d.Message) {
				t.Errorf("%s: unexpected diagnostic at %s:%d: %s", pkgpath, pos.Filename, pos.Line, d.Message)
			}
		}
		for key, exps := range wants {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s: expected diagnostic matching %q at %s, got none", pkgpath, e.re, key)
				}
			}
		}
	}
}

func matchWant(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want "re" "re"` comments, keyed by file:line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pat := range splitQuoted(t, key, rest) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the double- or back-quoted strings of a want
// comment body.
func splitQuoted(t *testing.T, where, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", where, s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want string %s: %v", where, s[:end+1], err)
			}
			out = append(out, unq)
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want raw string: %s", where, s)
			}
			out = append(out, s[1:end+1])
			s = s[end+2:]
		default:
			t.Fatalf("%s: want expects quoted regexps, got: %s", where, s)
		}
	}
}
