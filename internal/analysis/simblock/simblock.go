// Package simblock forbids wall-clock blocking in simulated code. A
// simulated process or timer callback runs inline in the event
// dispatcher; if it parks on a real channel, mutex, or syscall the
// whole simulation stalls in host time and — worse — results start
// depending on host scheduling, breaking bit-for-bit replay. No package
// is exempt, the simulator core included: its procs are runtime
// coroutines that switch without channel operations or locks, so
// nothing in the tree legitimately blocks.
//
// Roots are process bodies (Env.Go) and timer callbacks (Env.At /
// Env.After / Ticker.Subscribe). Reachability follows static,
// closure, and interface edges; dynamic function-value edges are cut
// for the same reason as in hotalloc — the dispatcher's own `fn()`
// trampoline would otherwise mark the entire module.
package simblock

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the simulated-blocking check.
var Analyzer = &framework.Analyzer{
	Name: "simblock",
	Doc: "forbid wall-clock blocking (time.Sleep, channel ops, sync.Wait, syscalls/IO) " +
		"in functions reachable from simulated process bodies and timer callbacks",
	Run: run,
}

type finding struct {
	pkg string
	pos token.Pos
	msg string
}

func run(pass *framework.Pass) error {
	if pass.Summaries == nil || pass.CallGraph == nil {
		return nil // unit mode: the standalone driver covers this in CI
	}
	findings := pass.Summaries.Program("simblock", compute).([]finding)
	for _, f := range findings {
		if f.pkg != pass.PkgPath {
			continue
		}
		if pass.Suppressed("simblock", f.pos) {
			continue
		}
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}

func compute(cg *framework.CallGraph) interface{} {
	var roots []*framework.FuncNode
	for _, n := range cg.Roots(framework.RoleProcBody | framework.RoleTimerCallback) {
		if !n.InTestFile {
			roots = append(roots, n)
		}
	}
	tree := cg.ReachableFrom(roots, func(e *framework.CallEdge) bool {
		return e.Kind != framework.EdgeDynamic && !e.Callee.InTestFile
	})
	var out []finding
	for _, n := range cg.Nodes() {
		if _, ok := tree[n]; !ok || !n.Defined() || n.InTestFile {
			continue
		}
		chain := framework.ChainString(framework.ChainTo(tree, n))
		scanBody(n, func(pos token.Pos, desc string) {
			out = append(out, finding{
				pkg: n.PkgPath,
				pos: pos,
				msg: fmt.Sprintf("%s in simulated code (via %s); use virtual time and the sim scheduler", desc, chain),
			})
		})
	}
	return out
}

// scanBody reports every potentially blocking construct in one body.
// Nested literals are separate call-graph nodes and are skipped.
func scanBody(n *framework.FuncNode, report func(token.Pos, string)) {
	body := n.Body()
	if body == nil || n.Info == nil {
		return
	}
	info := n.Info
	// Channel ops inside a select's comm clauses are part of the select
	// (the select is the blocking point); collect them so they are not
	// double-reported.
	inSelect := map[ast.Node]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(y ast.Node) bool {
				switch y := y.(type) {
				case *ast.SendStmt:
					inSelect[y] = true
				case *ast.UnaryExpr:
					if y.Op == token.ARROW {
						inSelect[y] = true
					}
				}
				return true
			})
		}
		return true
	})
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !inSelect[x] {
				report(x.Pos(), "channel send may block on the host scheduler")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inSelect[x] {
				report(x.Pos(), "channel receive may block on the host scheduler")
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					return true // has a default clause: non-blocking
				}
			}
			report(x.Pos(), "select without default may block on the host scheduler")
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(x.Pos(), "range over channel blocks on the host scheduler")
				}
			}
		case *ast.CallExpr:
			if desc, bad := blockingCallee(info, x); bad {
				report(x.Pos(), desc)
			}
		}
		return true
	})
}

// blockingCallee classifies a call as blocking/syscalling by its
// statically named callee.
func blockingCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(info, ast.Unparen(call.Fun))
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "time":
		switch name {
		case "Sleep", "After", "Tick":
			return "time." + name + " blocks in host time", true
		}
	case "sync":
		switch name {
		case "Wait":
			return "sync " + recvName(fn) + ".Wait blocks on the host scheduler", true
		case "Lock", "RLock":
			return "sync " + recvName(fn) + "." + name + " may block on the host scheduler", true
		}
	case "os", "net", "syscall", "os/exec", "io/ioutil":
		return pkg + "." + name + " performs host I/O", true
	}
	return "", false
}

// recvName renders a method's receiver type name for diagnostics.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return fn.Pkg().Name()
}

// staticCallee resolves the *types.Func a direct call names, nil for
// dynamic calls.
func staticCallee(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				return sel.Obj().(*types.Func)
			}
			return nil
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
