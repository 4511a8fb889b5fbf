// Package finalizer forbids garbage-collector and scheduler
// manipulation (runtime.SetFinalizer, runtime.GC, runtime.Gosched,
// runtime.GOMAXPROCS, debug.SetGCPercent, ...) in internal/ packages.
// Finalizers run on the collector's clock and forced collections or
// scheduler yields perturb timing in host time — all of it invisible
// to the virtual clock, none of it replayable. The simulator core is no
// exception: its procs are runtime coroutines that need no scheduler
// tuning.
package finalizer

import (
	"go/ast"
	"go/types"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the GC/scheduler-manipulation check.
var Analyzer = &framework.Analyzer{
	Name: "finalizer",
	Doc: "forbid GC and scheduler manipulation (runtime.SetFinalizer/GC/Gosched/GOMAXPROCS, " +
		"debug.SetGCPercent/FreeOSMemory/...) in internal/ packages",
	Run: run,
}

var scope string

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", "internal",
		"only packages whose import path contains this segment are checked")
}

// banned maps package path → function names whose call is forbidden.
var banned = map[string]map[string]bool{
	"runtime": {
		"SetFinalizer": true, "GC": true, "Gosched": true,
		"GOMAXPROCS": true, "LockOSThread": true, "UnlockOSThread": true,
	},
	"runtime/debug": {
		"SetGCPercent": true, "SetMemoryLimit": true,
		"FreeOSMemory": true, "SetMaxThreads": true,
	},
}

func run(pass *framework.Pass) error {
	if !framework.PathHasSegment(pass.PkgPath, scope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
			if !ok {
				return true
			}
			pkg := pn.Imported().Path()
			if !banned[pkg][sel.Sel.Name] {
				return true
			}
			if pass.Suppressed("finalizer", sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s manipulates the collector/scheduler in host time; not replayable, keep it out of simulation code",
				pkg, sel.Sel.Name)
			return true
		})
	}
	return nil
}
