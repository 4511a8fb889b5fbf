// Package maporder flags `for range` loops over maps whose bodies
// leak Go's randomized iteration order into ordered output: appends to
// slices that are later iterated, writes to tables/trace/printers, or
// selection/reduction into variables outside the loop. Any of these
// makes report text or trace streams depend on the per-process map
// seed, breaking byte-for-byte replay.
//
// A loop is accepted when:
//   - the emitted slice is sorted afterwards in the same function
//     (the append-then-sort idiom, e.g. sort.Strings / sort.Slice /
//     slices.Sort on the appended variable);
//   - the body's only map-order-dependent effects are commutative and
//     exact (integer accumulation, writes into another map, delete);
//   - the loop carries a `//detcheck:ordered` justification comment.
//
// Test files are not checked: a test that builds output in map order
// fails its own comparison.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the maporder check.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose body emits to ordered sinks (slice appends, tables, " +
		"trace, printers) or selects into outer variables without sorting keys first",
	WaiverNames: []string{"ordered"},
	Run:         run,
}

// sinks names the methods and functions whose call order is output
// order: tables, trace, event scheduling, printers and writers.
var sinks = map[string]bool{
	"AddRow": true, "AddNote": true, "Emit": true, "Record": true, "Begin": true,
	"End": true, "Counter": true, "Trigger": true, "Go": true, "At": true,
	"After": true, "Schedule": true, "Fprintf": true, "Fprint": true,
	"Fprintln": true, "Printf": true, "Print": true, "Println": true,
	"Sprintf": true, "WriteString": true, "Write": true, "WriteByte": true,
	"WriteRune": true,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.SourceFiles() {
		// Walk function by function so the append-then-sort idiom can
		// inspect statements that follow the loop.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkFunc inspects one function body for offending map ranges. It
// recurses into nested loops but not nested function literals (they
// get their own walk).
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Suppressed("ordered", rs.Pos()) {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

type loopScope struct {
	pass *framework.Pass
	rs   *ast.RangeStmt
	vars map[types.Object]bool // the key/value iteration variables
}

// checkMapRange reports each order-dependent effect in one map range.
func checkMapRange(pass *framework.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	sc := &loopScope{pass: pass, rs: rs, vars: map[types.Object]bool{}}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				sc.vars[obj] = true
			}
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			sc.checkAssign(funcBody, n)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				sc.checkCall(call)
			}
		case *ast.SendStmt:
			if sc.referencesLoopVar(n.Value) || sc.referencesLoopVar(n.Chan) {
				sc.report(n.Pos(), "channel send depends on map iteration order")
			}
		}
		return true
	})
}

func (sc *loopScope) report(pos token.Pos, what string) {
	if sc.pass.Suppressed("ordered", pos) {
		return
	}
	sc.pass.Reportf(pos,
		"%s: iterate sorted keys instead, sort the result before emitting, "+
			"or annotate the loop with //detcheck:ordered <reason>", what)
}

// checkAssign flags appends and selections into variables that outlive
// the loop. At most one diagnostic is reported per assignment
// statement (a multi-assign like `best, bestAt = k, v` is one finding).
func (sc *loopScope) checkAssign(funcBody *ast.BlockStmt, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		// Writes into a map are per-key and commutative: order-safe.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if t := sc.pass.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					continue
				}
			}
		}
		if !sc.outlivesLoop(lhs) {
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(sc.pass, call, "append") {
			if !sc.referencesLoopVar(call) {
				continue
			}
			if sortedAfter(sc.pass, funcBody, sc.rs, lhs) {
				continue
			}
			sc.report(as.Pos(), "append inside map iteration builds a slice in map order")
			return
		}
		if !sc.referencesLoopVar(rhs) && !(as.Tok != token.ASSIGN && sc.referencesLoopVar(lhs)) {
			continue
		}
		// Compound integer accumulation (n += count) is exact and
		// commutative; float accumulation reorders rounding error and
		// selection (plain =) picks a map-order-dependent winner.
		if as.Tok != token.ASSIGN && isIntegerType(sc.pass.TypeOf(lhs)) {
			continue
		}
		if as.Tok == token.ASSIGN {
			sc.report(as.Pos(), "assignment selects a value that depends on map iteration order")
		} else {
			sc.report(as.Pos(), "floating-point accumulation over map iteration reorders rounding error")
		}
		return
	}
}

// checkCall flags sink calls whose arguments carry the iteration
// variables into ordered output.
func (sc *loopScope) checkCall(call *ast.CallExpr) {
	name := calleeName(call)
	if name == "" || !sinks[name] {
		return
	}
	if !sc.referencesLoopVar(call) {
		return
	}
	sc.report(call.Pos(), "call to ordered sink "+name+" inside map iteration")
}

// outlivesLoop reports whether the assignment target survives the
// range statement: a selector/index (field, element) always does; a
// plain identifier does when it was declared outside the loop.
func (sc *loopScope) outlivesLoop(lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := sc.pass.TypesInfo.ObjectOf(lhs)
		if obj == nil {
			return false
		}
		return obj.Pos() < sc.rs.Pos() || obj.Pos() > sc.rs.End()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// referencesLoopVar reports whether the expression mentions the range
// key or value variable.
func (sc *loopScope) referencesLoopVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := sc.pass.TypesInfo.ObjectOf(id); obj != nil && sc.vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether the appended-to variable is passed to a
// sort.* or slices.Sort* call after the loop in the same function — the
// append-then-sort idiom that restores a canonical order.
func sortedAfter(pass *framework.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	id, ok := target.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rs.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.ObjectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		p := pn.Imported().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if aid, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(aid) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(pass *framework.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isIntegerType reports whether t is an integer kind (exact,
// commutative accumulation).
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
