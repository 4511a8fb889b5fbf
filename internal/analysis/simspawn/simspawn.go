// Package simspawn forbids free-running concurrency in simulation
// packages. The simulator is cooperatively scheduled: exactly one
// process runs at a time and control passes only through the Env
// calendar (Env.Go, Proc.Sleep/Wait, resource operations). A bare `go`
// statement or a raw channel operation races the scheduler in host
// time, so whether it interleaves before or after a virtual-time event
// depends on the Go runtime — exactly the nondeterminism the virtual
// clock exists to exclude. Only internal/sim's own scheduler
// internals, which implement the parking protocol, are exempt.
package simspawn

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the simspawn check.
var Analyzer = &framework.Analyzer{
	Name: "simspawn",
	Doc: "forbid bare go statements and raw channel operations in simulation packages; " +
		"spawn processes with Env.Go and synchronize through Proc parking",
	WaiverNames: []string{"spawn"},
	Run:         run,
}

var scope, exempt string

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", "internal",
		"only packages whose import path contains this segment are checked")
	Analyzer.Flags.StringVar(&exempt, "exempt", "internal/sim",
		"comma-separated import-path suffixes exempt from the check (scheduler internals)")
}

func run(pass *framework.Pass) error {
	if !framework.PathHasSegment(pass.PkgPath, scope) {
		return nil
	}
	for _, suffix := range strings.Split(exempt, ",") {
		if suffix = strings.TrimSpace(suffix); suffix != "" &&
			framework.PathHasSuffixSegments(strings.TrimSuffix(pass.PkgPath, "_test"), suffix) {
			return nil
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(pass, n.Pos(), "bare go statement races the cooperative scheduler; use Env.Go")
			case *ast.SendStmt:
				report(pass, n.Pos(), "raw channel send synchronizes in host time; use Event/Proc parking")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(pass, n.Pos(), "raw channel receive synchronizes in host time; use Proc.Wait")
				}
			case *ast.SelectStmt:
				report(pass, n.Pos(), "select races channels in host time; use Proc.WaitTimeout")
			case *ast.CallExpr:
				if isMakeChan(pass, n) {
					report(pass, n.Pos(), "channel construction in simulation code; use Env.NewEvent")
				}
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						report(pass, n.Pos(), "range over channel synchronizes in host time; use Proc.Wait")
					}
				}
			}
			return true
		})
	}
	return nil
}

func report(pass *framework.Pass, pos token.Pos, msg string) {
	if pass.Suppressed("spawn", pos) {
		return
	}
	pass.Reportf(pos, "%s", msg)
}

// isMakeChan reports whether the call is make(chan ...).
func isMakeChan(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	t := pass.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}
