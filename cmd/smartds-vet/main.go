// Command smartds-vet is the determinism multichecker: it runs the
// detcheck analyzers (wallclock, randsrc, maporder, simspawn,
// floatacc, hotalloc, simblock, errdrop, finalizer) over the module and
// exits nonzero on any finding. The analyzers mechanically enforce the
// invariants behind the simulator's "whole experiments replay
// bit-for-bit" guarantee; see the "Determinism invariants" section of
// DESIGN.md.
//
// The driver loads and type-checks the whole package set itself and
// builds one interprocedural call graph over it (framework
// BuildCallGraph); the hotalloc/simblock/errdrop analyzers consume it
// through Pass.CallGraph / Pass.Summaries.
//
// Usage:
//
//	go run ./cmd/smartds-vet ./...          # whole tree (what CI runs)
//	go run ./cmd/smartds-vet ./internal/sim # one package
//	go run ./cmd/smartds-vet -maporder=false ./...
//	go run ./cmd/smartds-vet -randsrc.allow=internal/rng,internal/foo ./...
//	go run ./cmd/smartds-vet -waiver-audit ./...
//
// Each analyzer can be disabled with -<name>=false and configured via
// -<name>.<flag> options; allowlists live in these flag defaults, not
// in CI YAML. Individual findings are waived in code with a
// `//detcheck:<name> <reason>` comment on the flagged line or the line
// above it. With -waiver-audit the driver additionally fails on rotten
// waivers: directives naming no known analyzer, and directives that no
// longer suppress any finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/disagg/smartds/internal/analysis/errdrop"
	"github.com/disagg/smartds/internal/analysis/finalizer"
	"github.com/disagg/smartds/internal/analysis/floatacc"
	"github.com/disagg/smartds/internal/analysis/framework"
	"github.com/disagg/smartds/internal/analysis/hotalloc"
	"github.com/disagg/smartds/internal/analysis/load"
	"github.com/disagg/smartds/internal/analysis/maporder"
	"github.com/disagg/smartds/internal/analysis/randsrc"
	"github.com/disagg/smartds/internal/analysis/simblock"
	"github.com/disagg/smartds/internal/analysis/simspawn"
	"github.com/disagg/smartds/internal/analysis/wallclock"
)

// analyzers is the detcheck suite, in reporting order: the five
// per-package checks, then the interprocedural layer, then finalizer.
var analyzers = []*framework.Analyzer{
	wallclock.Analyzer,
	randsrc.Analyzer,
	maporder.Analyzer,
	simspawn.Analyzer,
	floatacc.Analyzer,
	hotalloc.Analyzer,
	simblock.Analyzer,
	errdrop.Analyzer,
	finalizer.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smartds-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	auditFlag := fs.Bool("waiver-audit", false,
		"fail on rotten //detcheck: directives (unknown waiver keys, waivers that no longer suppress anything)")
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "run the "+a.Name+" analyzer\n"+a.Doc)
		a.Flags.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: smartds-vet [flags] [package patterns]\n\n")
		fmt.Fprintf(stderr, "Determinism multichecker for the SmartDS simulator. Analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "smartds-vet: %v\n", err)
		return 2
	}
	loader := load.NewLoader()
	pkgs, err := loader.Patterns(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "smartds-vet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "smartds-vet: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}

	// The interprocedural layer: one call graph over the whole loaded
	// package set, one fact store and one waiver audit shared by every
	// pass of the run.
	var units []framework.Unit
	for _, pkg := range pkgs {
		units = append(units, framework.Unit{
			Fset: pkg.Fset, Files: pkg.Files, PkgPath: pkg.PkgPath,
			Pkg: pkg.Types, Info: pkg.Info,
		})
	}
	cg := framework.BuildCallGraph(units)
	sums := framework.NewSummaries(cg)
	audit := framework.NewWaiverAudit()

	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "smartds-vet: %s: %v\n", pkg.PkgPath, terr)
			exit = 2
		}
		var diags []diagnostic
		for _, a := range analyzers {
			if !*enabled[a.Name] {
				continue
			}
			pass := &framework.Pass{
				Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, PkgPath: pkg.PkgPath,
				Pkg: pkg.Types, TypesInfo: pkg.Info,
				Report:    func(d framework.Diagnostic) { diags = append(diags, diagnostic{a.Name, d}) },
				CallGraph: cg, Summaries: sums, Audit: audit,
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "smartds-vet: %s: %s: %v\n", a.Name, pkg.PkgPath, err)
				exit = 2
			}
		}
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := pkg.Fset.Position(diags[i].d.Pos), pkg.Fset.Position(diags[j].d.Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return pi.Column < pj.Column
		})
		for _, d := range diags {
			pos := pkg.Fset.Position(d.d.Pos)
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relTo(cwd, pos.Filename), pos.Line, pos.Column, d.analyzer, d.d.Message)
			if exit == 0 {
				exit = 1
			}
		}
	}
	if *auditFlag {
		if auditWaivers(pkgs, enabled, audit, cwd, stdout) && exit == 0 {
			exit = 1
		}
	}
	return exit
}

// auditWaivers checks every //detcheck: directive of the run against
// the suppression hits the analyzers recorded. A directive whose key
// no analyzer owns is a typo; a directive owned by an enabled analyzer
// that suppressed nothing is rot — both fail the build so waivers
// cannot silently outlive the code they blessed. Keys of disabled
// analyzers are skipped: they could not have fired this run.
func auditWaivers(pkgs []*load.Package, enabled map[string]*bool,
	audit *framework.WaiverAudit, cwd string, stdout io.Writer) bool {
	owner := map[string]string{}
	var known []string
	for _, a := range analyzers {
		for _, k := range a.WaiverKeys() {
			owner[k] = a.Name
			known = append(known, k)
		}
	}
	sort.Strings(known)
	bad := false
	for _, pkg := range pkgs {
		for _, d := range framework.Directives(pkg.Fset, pkg.Files) {
			o, ok := owner[d.Name]
			if !ok {
				fmt.Fprintf(stdout, "%s:%d: waiver-audit: unknown waiver key %q (known keys: %s)\n",
					relTo(cwd, d.File), d.Line, d.Name, strings.Join(known, ", "))
				bad = true
				continue
			}
			if !*enabled[o] {
				continue
			}
			if !audit.Used(d) {
				fmt.Fprintf(stdout, "%s:%d: waiver-audit: //detcheck:%s suppresses no finding; remove the stale waiver or fix its placement\n",
					relTo(cwd, d.File), d.Line, d.Name)
				bad = true
			}
		}
	}
	return bad
}

type diagnostic struct {
	analyzer string
	d        framework.Diagnostic
}

// relTo shortens an absolute filename relative to the working
// directory when that produces a cleaner path.
func relTo(cwd, path string) string {
	if !strings.HasPrefix(path, cwd+string(os.PathSeparator)) {
		return path
	}
	return "." + strings.TrimPrefix(path, cwd)
}
