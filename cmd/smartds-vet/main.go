// Command smartds-vet is the determinism multichecker: it runs the
// detcheck analyzers (wallclock, randsrc, maporder, simspawn, hotalloc,
// simblock, errdrop, finalizer) over the module,
// audits every //detcheck: waiver, and exits nonzero on any finding.
// The analyzers mechanically enforce the invariants behind the
// simulator's "whole experiments replay bit-for-bit" guarantee; see
// the "Determinism invariants" section of DESIGN.md.
//
// The driver loads and type-checks the whole package set itself and
// builds one interprocedural call graph over it (framework
// BuildCallGraph); the hotalloc/simblock/errdrop analyzers consume it
// through Pass.CallGraph.
//
// Usage:
//
//	go run ./cmd/smartds-vet ./...   # whole tree (what CI runs)
//
// It takes only package patterns (default ./...). Scopes and
// allowlists are constants in the analyzers, so changing one is a
// reviewed code change. Individual findings are waived in code with a
// `//detcheck:<name> <reason>` comment: trailing on the flagged line,
// or alone on the line above it. Waivers cannot rot: a directive naming no known analyzer,
// or one that no longer suppresses any finding, is itself a finding.
// That audit is exact only over the whole tree: a run over a few
// packages leaves out the //hot roots and callbacks that reach other
// packages, so their hotalloc and simblock waivers read as stale.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/disagg/smartds/internal/analysis/errdrop"
	"github.com/disagg/smartds/internal/analysis/finalizer"
	"github.com/disagg/smartds/internal/analysis/framework"
	"github.com/disagg/smartds/internal/analysis/hotalloc"
	"github.com/disagg/smartds/internal/analysis/load"
	"github.com/disagg/smartds/internal/analysis/maporder"
	"github.com/disagg/smartds/internal/analysis/randsrc"
	"github.com/disagg/smartds/internal/analysis/simblock"
	"github.com/disagg/smartds/internal/analysis/simspawn"
	"github.com/disagg/smartds/internal/analysis/wallclock"
)

// analyzers is the detcheck suite, in reporting order: the four
// per-package checks, then the interprocedural layer, then finalizer.
var analyzers = []*framework.Analyzer{
	wallclock.Analyzer,
	randsrc.Analyzer,
	maporder.Analyzer,
	simspawn.Analyzer,
	hotalloc.Analyzer,
	simblock.Analyzer,
	errdrop.Analyzer,
	finalizer.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(patterns []string, stdout, stderr io.Writer) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(stderr, "usage: smartds-vet [package patterns]\n\nsmartds-vet takes no flags. Analyzers:\n")
			for _, a := range analyzers {
				fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
			}
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "smartds-vet: %v\n", err)
		return 2
	}
	pkgs, err := load.NewLoader().Patterns(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "smartds-vet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "smartds-vet: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}

	// The interprocedural layer: one call graph over the whole loaded
	// package set and one waiver audit, shared by every pass of the run.
	cg := framework.BuildCallGraph(pkgs)
	audit := framework.NewWaiverAudit()

	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "smartds-vet: %s: %v\n", pkg.PkgPath, terr)
			exit = 2
		}
		var diags []framework.Diagnostic
		for _, a := range analyzers {
			pass := &framework.Pass{
				Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, PkgPath: pkg.PkgPath,
				Pkg: pkg.Types, TypesInfo: pkg.Info,
				Report: func(d framework.Diagnostic) {
					d.Message = a.Name + ": " + d.Message
					diags = append(diags, d)
				},
				CallGraph: cg, Audit: audit,
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "smartds-vet: %s: %s: %v\n", a.Name, pkg.PkgPath, err)
				exit = 2
			}
		}
		framework.SortDiagnostics(pkg.Fset, diags)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Fprintf(stdout, "%s:%d:%d: %s\n", relTo(cwd, pos.Filename), pos.Line, pos.Column, d.Message)
			if exit == 0 {
				exit = 1
			}
		}
	}
	if auditWaivers(pkgs, audit, cwd, stdout) && exit == 0 {
		exit = 1
	}
	return exit
}

// auditWaivers checks every //detcheck: directive of the run against
// the suppression hits the analyzers recorded. A directive whose key
// no analyzer owns is a typo; a directive that suppressed nothing is
// rot — both fail the build so waivers cannot silently outlive the
// code they blessed.
func auditWaivers(pkgs []*load.Package, audit *framework.WaiverAudit, cwd string, stdout io.Writer) bool {
	known := map[string]bool{}
	var keys []string
	for _, a := range analyzers {
		for _, k := range a.WaiverKeys() {
			known[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := false
	for _, pkg := range pkgs {
		for _, d := range framework.Directives(pkg.Fset, pkg.Files) {
			switch {
			case !known[d.Name]:
				fmt.Fprintf(stdout, "%s:%d: waiver-audit: unknown waiver key %q (known keys: %s)\n",
					relTo(cwd, d.File), d.Line, d.Name, strings.Join(keys, ", "))
			case !audit.Used(d):
				fmt.Fprintf(stdout, "%s:%d: waiver-audit: //detcheck:%s suppresses no finding; remove the stale waiver or fix its placement\n",
					relTo(cwd, d.File), d.Line, d.Name)
			default:
				continue
			}
			bad = true
		}
	}
	return bad
}

// relTo shortens an absolute filename relative to the working
// directory when that produces a cleaner path.
func relTo(cwd, path string) string {
	if !strings.HasPrefix(path, cwd+string(os.PathSeparator)) {
		return path
	}
	return "." + strings.TrimPrefix(path, cwd)
}
