// Package wallclock forbids wall-clock time in simulation code. The
// simulator runs entirely in virtual time (sim.Time); any call to
// time.Now, time.Sleep, timer construction, or an ambient time.Time
// value inside internal/ packages couples results to the host clock
// and breaks bit-for-bit replay. Host-facing spots (flag parsing of
// human durations, wall-time progress lines in cmd/) live outside
// internal/ or carry a //detcheck:wallclock annotation.
package wallclock

import (
	"go/ast"
	"go/types"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the wallclock check.
var Analyzer = &framework.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock time (time.Now/Since/Sleep/After/NewTimer/NewTicker and " +
		"time.Time construction) in internal/ packages; simulation code must use virtual sim.Time",
	Run: run,
}

// banned lists the time package functions that read or wait on the
// host clock.
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func run(pass *framework.Pass) error {
	if !framework.PathHasSegments(pass.PkgPath, "internal") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if !banned[n.Sel.Name] || !isTimePkg(pass, n.X) {
					return true
				}
				if pass.Suppressed("wallclock", n.Pos()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"wall-clock time.%s in simulation code: use virtual time (sim.Time, Env.Now, Proc.Sleep)",
					n.Sel.Name)
			case *ast.CompositeLit:
				t := pass.TypeOf(n)
				if t == nil || !isTimeTime(t) {
					return true
				}
				if pass.Suppressed("wallclock", n.Pos()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"time.Time construction in simulation code: use virtual time (sim.Time)")
			}
			return true
		})
	}
	return nil
}

// isTimePkg reports whether expr is a reference to the imported
// standard "time" package.
func isTimePkg(pass *framework.Pass, x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == "time"
}

// isTimeTime reports whether t is time.Time.
func isTimeTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}
