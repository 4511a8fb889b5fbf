package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module for the loader to chew on.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDirUnparseableFile(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":    "module example.com/broken\n",
		"broken.go": "package broken\n\nfunc oops( {\n",
	})
	_, err := NewLoader().Dir(dir)
	if err == nil {
		t.Fatal("Dir succeeded on an unparseable file, want a parse error")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("parse error does not name the file: %v", err)
	}
}

// TestDirMissingImport pins the partial-check contract: an unresolvable
// import is collected into TypeErrors, but the package is still
// returned so syntactic analyzers can run over it.
func TestDirMissingImport(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module example.com/missing\n",
		"m.go": `package missing

import "example.com/no/such/package"

var _ = nosuch.Value
`,
	})
	pkgs, err := NewLoader().Dir(dir)
	if err != nil {
		t.Fatalf("Dir: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.TypeErrors) == 0 {
		t.Error("missing import produced no TypeErrors")
	}
	if len(p.Files) != 1 || p.Info == nil {
		t.Errorf("partially checked package lost its syntax or info: files=%d info=%v", len(p.Files), p.Info != nil)
	}
}

func TestDirRejectsCgo(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module example.com/cgomod\n",
		"c.go": `package cgomod

// #include <stdlib.h>
import "C"

func f() { C.free(nil) }
`,
	})
	_, err := NewLoader().Dir(dir)
	if err == nil {
		t.Fatal("Dir succeeded on a cgo file, want an explicit rejection")
	}
	if !strings.Contains(err.Error(), "cgo is not supported") {
		t.Errorf("cgo rejection message = %v", err)
	}
	if !strings.Contains(err.Error(), "c.go") {
		t.Errorf("cgo rejection does not name the file: %v", err)
	}
}

func TestPatternsBadDirectory(t *testing.T) {
	dir := writeTree(t, map[string]string{"go.mod": "module example.com/empty\n"})
	_, err := NewLoader().Patterns(dir, []string{"./no/such/dir/..."})
	if err == nil {
		t.Fatal("Patterns succeeded on a nonexistent directory, want an error")
	}
	if !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("pattern error = %v", err)
	}
}

// TestImportPathForOutsideModule pins the no-go.mod failure mode.
func TestImportPathForOutsideModule(t *testing.T) {
	dir := t.TempDir() // no go.mod anywhere above a fresh temp root (in practice)
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		t.Skip("temp dir unexpectedly contains go.mod")
	}
	sub := filepath.Join(dir, "pkg")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := importPathFor(sub); err == nil {
		t.Skip("a go.mod exists above the temp dir on this machine; cannot pin the failure")
	}
}

// TestExternalTestSeesExportTest: an external test package type-checks
// against the test variant of the package under test, so it can call
// what export_test.go exports, and against module packages re-checked
// for that variant, so their types and the variant's agree.
func TestExternalTestSeesExportTest(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":           "module example.com/xt\n",
		"p/p.go":           "package p\n\ntype T struct{ n int }\n",
		"p/export_test.go": "package p\n\nfunc N(t *T) int { return t.n }\n",
		"q/q.go":           "package q\n\nimport \"example.com/xt/p\"\n\nfunc Make() *p.T { return new(p.T) }\n",
		"p/p_test.go":      "package p_test\n\nimport (\n\t\"example.com/xt/p\"\n\t\"example.com/xt/q\"\n)\n\nvar _ = p.N(q.Make())\n",
	})
	pkgs, err := NewLoader().Dir(filepath.Join(dir, "p"))
	if err != nil {
		t.Fatalf("Dir: %v", err)
	}
	if len(pkgs) != 2 || pkgs[1].PkgPath != "example.com/xt/p_test" {
		t.Fatalf("got %d packages, want p and p_test", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Errorf("%s: %v", p.PkgPath, p.TypeErrors)
		}
	}
}
