// Package errdrop forbids silently discarded errors on the ack and
// durability paths (middletier, storage, rdma). In the SmartDS split
// protocol an ACK to the client asserts that data reached its
// durability point; a dropped error between the two turns "durable"
// into "probably durable". The check is interprocedural in one
// direction: a discarded call is fine when the callee provably
// returns nil on every path (computed bottom-up over the call graph),
// so error-plumbed helpers that cannot currently fail do not force
// ceremony on their callers.
package errdrop

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the discarded-error check.
var Analyzer = &framework.Analyzer{
	Name: "errdrop",
	Doc: "forbid discarded error results (bare calls, _ =, go/defer) in ack/durability " +
		"packages unless the callee provably always returns nil",
	Run: run,
}

var paths string

func init() {
	Analyzer.Flags.StringVar(&paths, "paths",
		"internal/middletier,internal/storage,internal/rdma",
		"comma-separated path segments naming the packages under enforcement")
}

func inScope(pkgPath string) bool {
	for _, p := range strings.Split(paths, ",") {
		if p = strings.TrimSpace(p); p != "" && framework.PathHasSegments(pkgPath, p) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if !inScope(pass.PkgPath) {
		return nil
	}
	nf := pass.Summaries.Program("errdrop", computeNeverFails).(map[string]bool)
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		checkFile(pass, f, nf)
	}
	return nil
}

// computeNeverFails propagates "provably returns nil error on every
// path" bottom-up: a function qualifies when every return either
// writes literal nil into each error result or forwards a callee that
// itself qualifies. Unknown callees (no body in the package set) and
// recursion default to may-fail.
func computeNeverFails(cg *framework.CallGraph) interface{} {
	nf := map[string]bool{}
	for _, comp := range cg.SCCs() {
		for _, n := range comp {
			if !n.Defined() || n.Decl == nil {
				continue
			}
			nf[n.ID] = provesNilErrors(n, nf)
		}
	}
	return nf
}

func provesNilErrors(n *framework.FuncNode, nf map[string]bool) bool {
	info := n.Info
	sig := declSignature(n)
	if sig == nil {
		return false
	}
	errIdx := errorResultIndexes(sig)
	if len(errIdx) == 0 {
		return true // vacuous: no error to fail with
	}
	body := n.Body()
	if body == nil {
		return false
	}
	ok := true
	ast.Inspect(body, func(x ast.Node) bool {
		if !ok {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			switch {
			case len(x.Results) == 0:
				ok = false // bare return with named error result
			case len(x.Results) == sig.Results().Len():
				for _, i := range errIdx {
					if !exprProvesNil(info, x.Results[i], nf) {
						ok = false
					}
				}
			case len(x.Results) == 1:
				// return f() passthrough of a multi-value callee.
				if !exprProvesNil(info, x.Results[0], nf) {
					ok = false
				}
			default:
				ok = false
			}
		}
		return true
	})
	return ok
}

func exprProvesNil(info *types.Info, e ast.Expr, nf map[string]bool) bool {
	e = ast.Unparen(e)
	if tv, found := info.Types[e]; found && tv.IsNil() {
		return true
	}
	if call, isCall := e.(*ast.CallExpr); isCall {
		if fn := staticCallee(info, ast.Unparen(call.Fun)); fn != nil {
			return nf[fn.FullName()]
		}
	}
	return false
}

// checkFile reports the intraprocedural discard sites of one file.
func checkFile(pass *framework.Pass, f *ast.File, nf map[string]bool) {
	report := func(pos ast.Node, what string) {
		if pass.Suppressed("errdrop", pos.Pos()) {
			return
		}
		pass.Reportf(pos.Pos(),
			"error result of %s is silently discarded on an ack/durability path; handle it or waive with //detcheck:errdrop",
			what)
	}
	ast.Inspect(f, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				checkCall(pass, call, nf, func(what string) { report(x, what) })
			}
		case *ast.DeferStmt:
			checkCall(pass, x.Call, nf, func(what string) { report(x, "deferred "+what) })
		case *ast.GoStmt:
			checkCall(pass, x.Call, nf, func(what string) { report(x, what+" (goroutine)") })
		case *ast.AssignStmt:
			checkAssign(pass, x, nf, report)
		}
		return true
	})
}

// checkCall fires when the call has an error result and the callee is
// not proven nil-returning.
func checkCall(pass *framework.Pass, call *ast.CallExpr, nf map[string]bool, report func(string)) {
	info := pass.TypesInfo
	t := info.TypeOf(call)
	if t == nil || !containsError(t) {
		return
	}
	fn := staticCallee(info, ast.Unparen(call.Fun))
	if fn != nil && nf[fn.FullName()] {
		return // provably always nil
	}
	report(callDisplay(fn))
}

// checkAssign fires when an error-typed value lands on a blank
// identifier.
func checkAssign(pass *framework.Pass, as *ast.AssignStmt, nf map[string]bool, report func(ast.Node, string)) {
	info := pass.TypesInfo
	// Multi-value call: v, _ := f().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, isCall := as.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return
		}
		tuple, isTuple := info.TypeOf(call).(*types.Tuple)
		if !isTuple {
			return
		}
		fn := staticCallee(info, ast.Unparen(call.Fun))
		for i, lhs := range as.Lhs {
			if i >= tuple.Len() || !isBlank(lhs) || !isErrorType(tuple.At(i).Type()) {
				continue
			}
			if fn != nil && nf[fn.FullName()] {
				continue
			}
			report(lhs, callDisplay(fn))
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) {
			continue
		}
		rhs := as.Rhs[i]
		t := info.TypeOf(rhs)
		if t == nil || !containsError(t) {
			continue
		}
		if call, isCall := rhs.(*ast.CallExpr); isCall {
			fn := staticCallee(info, ast.Unparen(call.Fun))
			if fn != nil && nf[fn.FullName()] {
				continue
			}
			report(lhs, callDisplay(fn))
			continue
		}
		report(lhs, "an error value")
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// containsError reports whether the type (a single type or a result
// tuple) has an error component.
func containsError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// isErrorType recognizes the universe error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}

func errorResultIndexes(sig *types.Signature) []int {
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

func declSignature(n *framework.FuncNode) *types.Signature {
	if n.Decl == nil || n.Info == nil {
		return nil
	}
	obj, _ := n.Info.Defs[n.Decl.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// callDisplay renders a callee for diagnostics.
func callDisplay(fn *types.Func) string {
	if fn == nil {
		return "a dynamic call"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s",
			types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() }),
			fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
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
