// Package load enumerates, parses and type-checks the module's
// packages for the detcheck analyzers using only the standard library
// (go/parser + go/types with the "source" importer). It understands
// the same "./..." pattern syntax the go tool uses, scoped to the
// current module.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked compilation unit. Test files are
// always loaded (wallclock and randsrc bind test code too): in-package
// test files are checked together with the library files, and an
// external test package (package foo_test) forms its own Package.
type Package struct {
	PkgPath string // import path; external tests carry a "_test" suffix
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// TypeErrors collects type-checking problems. Analyzers still run
	// on partially checked packages; drivers decide whether to fail.
	TypeErrors []error
}

// Loader parses and type-checks packages with a shared FileSet and
// importer so stdlib dependencies are only checked once per process.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Patterns resolves go-tool style patterns ("./...", "./internal/rng",
// "dir/...") into packages, rooted at dir (typically the module root
// or the current directory).
func (l *Loader) Patterns(dir string, patterns []string) ([]*Package, error) {
	seen := map[string]bool{}
	var dirs []string
	for _, pat := range patterns {
		expanded, err := expandPattern(dir, pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, d := range dirs {
		ps, err := l.Dir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}

// expandPattern turns one pattern into package directories.
func expandPattern(root, pat string) ([]string, error) {
	recursive := false
	if pat == "all" || pat == "..." {
		pat, recursive = ".", true
	}
	if strings.HasSuffix(pat, "/...") {
		pat, recursive = strings.TrimSuffix(pat, "/..."), true
	}
	base := pat
	if !filepath.IsAbs(base) {
		base = filepath.Join(root, base)
	}
	if st, err := os.Stat(base); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("load: pattern %q: not a directory: %s", pat, base)
	}
	if !recursive {
		if hasGoFiles(base) {
			return []string{base}, nil
		}
		return nil, nil
	}
	var out []string
	err := filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// Dir loads the package(s) rooted in one directory: the primary
// package (with its in-package test files)
// and, separately, an external test package if present.
func (l *Loader) Dir(dir string) ([]*Package, error) {
	pkgPath, err := importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.DirAs(dir, pkgPath)
}

// DirAs is Dir with an explicit import path, used by test fixtures
// whose on-disk location is unrelated to the path being simulated.
func (l *Loader) DirAs(dir, pkgPath string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string][]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if ignoredByBuildConstraint(f) {
			continue
		}
		if err := rejectCgo(l.Fset, f); err != nil {
			return nil, err
		}
		pkg := f.Name.Name
		byName[pkg] = append(byName[pkg], f)
	}
	var names []string
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names) // the package under test sorts before its external test
	var out []*Package
	imp := l.imp
	for _, n := range names {
		path := pkgPath
		if strings.HasSuffix(n, "_test") {
			path += "_test"
		}
		out = append(out, l.check(path, byName[n], imp))
		imp = &testImporter{l: l, dir: dir, under: pkgPath, variant: byName[n], pkgs: map[string]*types.Package{}}
	}
	return out, nil
}

// testImporter resolves an external test package's imports as the go
// tool builds the test: the package under test is its test variant
// (in-package test files such as export_test.go included), and every
// other package outside the standard library is re-checked from source
// against it, so the test sees one set of types.
type testImporter struct {
	l          *Loader
	dir, under string
	variant    []*ast.File
	pkgs       map[string]*types.Package
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := t.pkgs[path]; ok {
		return p, nil
	}
	files := t.variant
	if path != t.under {
		ctxt := build.Default
		ctxt.Dir = t.dir // resolve in the test's module
		bp, err := ctxt.Import(path, t.dir, 0)
		if err != nil || bp.Goroot {
			return t.l.imp.Import(path)
		}
		files = nil
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(t.l.Fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	p, err := (&types.Config{Importer: t}).Check(path, t.l.Fset, files, nil)
	t.pkgs[path] = p
	return p, err
}

// rejectCgo turns a cgo file into an explicit, actionable error. The
// source importer cannot type-check import "C" (there is no Go source
// for it), which would otherwise surface as a cascade of confusing
// type errors; determinism analysis of C-calling code is out of scope.
func rejectCgo(fset *token.FileSet, f *ast.File) error {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"C"` {
			return fmt.Errorf(`load: %s: cgo is not supported (import "C"); exclude the file with a build constraint`,
				fset.Position(imp.Pos()).Filename)
		}
	}
	return nil
}

// ignoredByBuildConstraint reports whether the file opts out of the
// build entirely (`//go:build ignore` and friends).
func ignoredByBuildConstraint(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			t := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if t == "go:build ignore" || strings.HasPrefix(t, "+build ignore") {
				return true
			}
		}
	}
	return false
}

// check type-checks one group of files, resolving imports through imp.
func (l *Loader) check(pkgPath string, files []*ast.File, imp types.Importer) *Package {
	p := &Package{
		PkgPath: pkgPath,
		Fset:    l.Fset,
		Files:   files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on error;
	// errors were already captured via conf.Error.
	pkg, _ := conf.Check(pkgPath, l.Fset, files, p.Info)
	p.Types = pkg
	return p
}

// importPathFor computes a directory's import path from the enclosing
// module's go.mod.
func importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "module ") {
			modPath = strings.TrimSpace(strings.TrimPrefix(line, "module "))
			modPath = strings.Trim(modPath, `"`)
			break
		}
	}
	if modPath == "" {
		return "", fmt.Errorf("load: no module line in %s/go.mod", root)
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
