// Package hotalloc enforces the zero-allocation contract on hot
// paths. The simulator's event dispatch and the middle tier's
// per-message stage path must not touch the garbage collector: the
// AllocsPerRun tests pin the end-to-end budgets, and this analyzer
// explains *why* a budget broke by naming the construct and the call
// chain that reaches it.
//
// Roots are functions annotated `//hot` plus every callback registered
// on the simulator event loop (Env.At / Env.After / Ticker.Subscribe).
// Reachability follows static calls, immediately invoked closures and
// the conservative interface fan-out, but deliberately NOT dynamic
// function-value edges: the dispatcher invoking `it.fn()` would
// otherwise make every address-taken func() in the module hot.
// Dynamic call sites are trust boundaries; the callbacks behind them
// are rooted explicitly at their registration sites.
//
// Flagged constructs: capturing closures, &composite / new, make,
// map and slice literals, append (may grow), interface boxing of
// non-pointer-shaped values, string concatenation and conversions,
// `go` statements, and calls into an allocating-stdlib denylist
// (fmt, errors.New, sort, strings helpers, ...).
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap-allocating constructs (closures, make, append, boxing, string ops) " +
		"in functions reachable from //hot roots and simulator event callbacks",
	Run: run,
}

var includeTests bool

func init() {
	Analyzer.Flags.BoolVar(&includeTests, "tests", false,
		"also enforce the contract on functions declared in _test.go files")
}

// finding is one allocation site, pre-resolved to the package that
// must report it.
type finding struct {
	pkg   string
	pos   token.Pos
	msg   string
	order int
}

func run(pass *framework.Pass) error {
	findings := pass.Summaries.Program("hotalloc", compute).([]finding)
	for _, f := range findings {
		if f.pkg != pass.PkgPath {
			continue
		}
		if pass.Suppressed("hotalloc", f.pos) {
			continue
		}
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}

// compute runs the whole-program analysis once: reachability from the
// hot roots, then an allocation-site scan of every reached body.
func compute(cg *framework.CallGraph) interface{} {
	var roots []*framework.FuncNode
	for _, n := range cg.Roots(framework.RoleHot | framework.RoleTimerCallback) {
		if n.Cold {
			continue // declared off the steady-state path
		}
		if includeTests || !n.InTestFile {
			roots = append(roots, n)
		}
	}
	tree := cg.ReachableFrom(roots, func(e *framework.CallEdge) bool {
		if e.Kind == framework.EdgeDynamic || e.Callee.Cold {
			return false
		}
		return includeTests || !e.Callee.InTestFile
	})
	var out []finding
	for _, n := range cg.Nodes() {
		if _, ok := tree[n]; !ok || !n.Defined() {
			continue
		}
		if n.InTestFile && !includeTests {
			continue
		}
		chain := framework.ChainString(framework.ChainTo(tree, n))
		scanBody(n, func(pos token.Pos, desc string) {
			out = append(out, finding{
				pkg:   n.PkgPath,
				pos:   pos,
				msg:   fmt.Sprintf("%s on zero-alloc hot path (via %s)", desc, chain),
				order: len(out),
			})
		})
	}
	return out
}

// scanBody reports every allocating construct in one function body.
// Nested function literals are their own call-graph nodes and are not
// descended into; only their creation is judged here.
func scanBody(n *framework.FuncNode, report func(token.Pos, string)) {
	body := n.Body()
	if body == nil || n.Info == nil {
		return
	}
	info := n.Info
	resultSig := nodeSignature(n)

	// Pre-pass: literals in call position (immediately invoked, stack
	// allocated) and composite literals already reported under `&`.
	invoked := map[*ast.FuncLit]bool{}
	addrOf := map[*ast.CompositeLit]bool{}
	innerAdd := map[*ast.BinaryExpr]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				invoked[fl] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					addrOf[cl] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if !invoked[x] && captures(info, x) {
				report(x.Pos(), "closure capturing enclosing variables allocates")
			}
			return false // nested bodies are separate nodes
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), fmt.Sprintf("&%s literal allocates", typeDesc(info, cl)))
					return true
				}
			}
		case *ast.CompositeLit:
			if addrOf[x] {
				return true // reported at the & above
			}
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				report(x.Pos(), "map literal allocates")
			}
		case *ast.CallExpr:
			scanCall(info, x, report)
		case *ast.BinaryExpr:
			// a + "/" + b is two ADD nodes sharing a position; report
			// the chain once at the outermost one.
			if x.Op == token.ADD && isString(info.TypeOf(x)) && !isConstant(info, x) && !innerAdd[x] {
				report(x.Pos(), "string concatenation allocates")
				var spine func(e ast.Expr)
				spine = func(e ast.Expr) {
					if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.ADD {
						innerAdd[b] = true
						spine(b.X)
						spine(b.Y)
					}
				}
				spine(x.X)
				spine(x.Y)
			}
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine")
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN {
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					checkBox(info, info.TypeOf(lhs), x.Rhs[i], report)
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				to := info.TypeOf(x.Type)
				for _, v := range x.Values {
					checkBox(info, to, v, report)
				}
			}
		case *ast.ReturnStmt:
			if resultSig != nil && len(x.Results) == resultSig.Results().Len() {
				for i, r := range x.Results {
					checkBox(info, resultSig.Results().At(i).Type(), r, report)
				}
			}
		}
		return true
	})
}

// nodeSignature returns the node's own signature for return-boxing
// checks, nil when unavailable.
func nodeSignature(n *framework.FuncNode) *types.Signature {
	switch {
	case n.Decl != nil:
		if obj, ok := n.Info.Defs[n.Decl.Name].(*types.Func); ok {
			if sig, ok := obj.Type().(*types.Signature); ok {
				return sig
			}
		}
	case n.Lit != nil:
		if sig, ok := n.Info.TypeOf(n.Lit).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// scanCall classifies one call expression: builtins (make, new,
// append), conversions, denylisted stdlib calls, and boxing at
// interface-typed parameters.
func scanCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if convAllocates(from, to) {
				report(call.Pos(), fmt.Sprintf("conversion %s allocates",
					convDesc(from, to)))
			}
			if types.IsInterface(to.Underlying()) {
				checkBox(info, to, call.Args[0], report)
			}
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				report(call.Pos(), "new() allocates")
			case "make":
				report(call.Pos(), "make() allocates")
			case "append":
				report(call.Pos(), "append may grow the backing array")
			}
			return
		}
	}

	// Named callee: stdlib denylist.
	if fn := staticCallee(info, fun); fn != nil && fn.Pkg() != nil {
		if desc, bad := allocStdlib(fn); bad {
			report(call.Pos(), desc)
		}
	}

	// Boxing at interface-typed parameters.
	sig, ok := info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			checkBox(info, pt, arg, report)
		}
	}
}

// staticCallee resolves the *types.Func a direct call names, nil for
// dynamic calls.
func staticCallee(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				return sel.Obj().(*types.Func)
			}
			return nil
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// allocStdlib reports whether a standard-library callee is on the
// known-allocating denylist.
func allocStdlib(fn *types.Func) (string, bool) {
	pkg := fn.Pkg().Path()
	name := fn.Name()
	switch pkg {
	case "fmt":
		return "fmt." + name + " allocates (formats through interfaces)", true
	case "errors":
		if name == "New" || name == "Join" {
			return "errors." + name + " allocates", true
		}
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return "sort." + name + " allocates (interface or closure boxing)", true
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Split", "SplitN", "Fields", "Map",
			"ToUpper", "ToLower", "NewReplacer", "NewReader":
			return "strings." + name + " allocates", true
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote":
			return "strconv." + name + " allocates", true
		}
	case "bytes":
		switch name {
		case "NewBuffer", "NewBufferString", "Join", "Repeat":
			return "bytes." + name + " allocates", true
		}
	}
	return "", false
}

// checkBox reports interface boxing: assigning a concrete
// non-pointer-shaped value to an interface-typed destination.
func checkBox(info *types.Info, dst types.Type, src ast.Expr, report func(token.Pos, string)) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	st := info.TypeOf(src)
	if st == nil || types.IsInterface(st.Underlying()) {
		return
	}
	if tv, ok := info.Types[src]; ok && tv.IsNil() {
		return
	}
	if pointerShaped(st) {
		return
	}
	report(src.Pos(), fmt.Sprintf("interface boxing of %s allocates",
		types.TypeString(st, shortQual)))
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// captures reports whether the literal references any variable
// declared outside it (other than package-level variables, which are
// not captured).
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level: not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
			return false
		}
		return true
	})
	return found
}

// convAllocates reports whether the conversion from → to copies data
// to the heap (string↔[]byte/[]rune in either direction).
func convAllocates(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	return (isString(from) && isByteOrRuneSlice(to)) ||
		(isByteOrRuneSlice(from) && isString(to))
}

func convDesc(from, to types.Type) string {
	return fmt.Sprintf("%s → %s", types.TypeString(from, shortQual), types.TypeString(to, shortQual))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func typeDesc(info *types.Info, cl *ast.CompositeLit) string {
	t := info.TypeOf(cl)
	if t == nil {
		return "composite"
	}
	s := types.TypeString(t, shortQual)
	if strings.HasPrefix(s, "struct{") {
		return "struct"
	}
	return s
}

func shortQual(p *types.Package) string { return p.Name() }
