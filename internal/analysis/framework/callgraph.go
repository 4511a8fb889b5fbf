// Call graph: the interprocedural layer of the detcheck framework.
//
// BuildCallGraph walks every loaded package once and produces a
// package-set call graph whose nodes are function declarations and
// function literals and whose edges are call sites. Static calls are
// resolved exactly; calls through interfaces and function values are
// over-approximated conservatively:
//
//   - an interface method call gets an edge to every method in the
//     package set with the same name and signature shape (class
//     hierarchy analysis by name+signature, which is robust against
//     the two type-checking universes the source importer creates for
//     each package);
//   - a call through a function value gets an edge to every
//     address-taken function or closure with the same signature shape.
//
// Nodes are keyed by a stable string ID (types.Func.FullName for
// declarations, package path + position for literals), so the same
// function seen from its defining package and through the source
// importer unifies to one node.
//
// The graph also records the three root roles the interprocedural
// analyzers start from: functions annotated `//hot`, callbacks handed
// to the simulator's event loop (Env.At / Env.After /
// Ticker.Subscribe), and process bodies handed to Env.Go. A callback
// registered through a struct field (`env.Go(name, op.runFn)`) takes
// its role to every function the package set assigns to that field
// (`op.runFn = op.run`).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/disagg/smartds/internal/analysis/load"
)

// Role marks why a function is an analysis entry point.
type Role uint8

const (
	// RoleHot marks a function annotated with a `//hot` comment (on
	// the declaration line, the line above it, or in its doc comment):
	// part of the zero-allocation contract.
	RoleHot Role = 1 << iota
	// RoleTimerCallback marks a callback registered on the simulator
	// event loop (Env.At, Env.After, Ticker.Subscribe): it runs inline
	// in the dispatcher, where per-event cost is the paper's currency.
	RoleTimerCallback
	// RoleProcBody marks a function handed to Env.Go: the body of a
	// simulated process.
	RoleProcBody
)

// EdgeKind classifies how a call site was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a named function or method.
	EdgeStatic EdgeKind = iota
	// EdgeClosure is the immediate invocation of a function literal.
	EdgeClosure
	// EdgeInterface is a call through an interface method, resolved to
	// every same-shaped concrete method in the package set.
	EdgeInterface
	// EdgeDynamic is a call through a function value, resolved to
	// every address-taken function with the same signature shape.
	EdgeDynamic
)

// FuncNode is one function (declaration or literal) in the call graph.
type FuncNode struct {
	// ID is the stable identity: types.Func.FullName for declared
	// functions and methods, "pkg.func@file:line:col" for literals.
	ID string
	// Name is the short display name ("(*Env).fire", "func@env.go:212").
	Name string
	// PkgPath is the import path of the package the node was declared
	// in ("" for stub nodes only ever seen as call targets, e.g.
	// standard-library functions).
	PkgPath string
	// Decl and Lit hold the syntax when the defining package was part
	// of the build: exactly one is non-nil for defined nodes, both are
	// nil for stubs.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// InTestFile records whether the node was declared in a _test.go
	// file; analyzers that enforce production contracts skip those.
	InTestFile bool
	// Info is the type information of the unit that defined the node,
	// nil for stubs. Interprocedural analyzers use it to scan bodies.
	Info *types.Info
	// Roles is the set of entry-point roles this node carries.
	Roles Role
	// Cold marks a `//cold` annotation: the function is declared off
	// the steady-state path (rare fault handling, epoch-scale
	// bookkeeping), so hot-path analyzers neither root it nor follow
	// calls into it. It is a reviewed trust boundary, like a waiver.
	Cold bool

	// Out are the call edges leaving the node, in deterministic build
	// order.
	Out []*CallEdge

	addrTaken bool
	sig       string // normalized signature shape, "" when unknown
	method    bool   // declared with a receiver
}

// Defined reports whether the node's body is part of the analyzed
// package set (false for standard-library and other external targets).
func (n *FuncNode) Defined() bool { return n.Decl != nil || n.Lit != nil }

// Body returns the function body when defined, else nil.
func (n *FuncNode) Body() *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	// Kind records how the site was resolved.
	Kind EdgeKind
}

// CallGraph is the package-set call graph.
type CallGraph struct {
	nodes   map[string]*FuncNode
	order   []*FuncNode // insertion order: deterministic across runs
	results map[string]interface{}
}

// Program returns the memoized whole-program result for key,
// computing it on first use. An interprocedural analyzer runs once
// over the whole package set (forward reachability from roots, or
// facts propagated bottom-up over the SCC order) and then reports its
// findings package by package as the driver hands it passes; keyed by
// the analyzer's name, the result is computed exactly once per run.
func (g *CallGraph) Program(key string, compute func(*CallGraph) interface{}) interface{} {
	if r, ok := g.results[key]; ok {
		return r
	}
	r := compute(g)
	g.results[key] = r
	return r
}

// Nodes returns all nodes in deterministic build order.
func (g *CallGraph) Nodes() []*FuncNode { return g.order }

// Roots returns the defined nodes carrying any of the given roles, in
// build order.
func (g *CallGraph) Roots(mask Role) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.order {
		if n.Roles&mask != 0 && n.Defined() {
			out = append(out, n)
		}
	}
	return out
}

// ReachableFrom computes the forward-reachable set from roots,
// following only edges for which follow returns true (nil follows
// everything). The result maps each reached node to the edge by which
// BFS first reached it; roots map to nil. Deterministic: BFS order is
// the deterministic node and edge order.
func (g *CallGraph) ReachableFrom(roots []*FuncNode, follow func(*CallEdge) bool) map[*FuncNode]*CallEdge {
	tree := make(map[*FuncNode]*CallEdge, len(roots))
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := tree[r]; !ok {
			tree[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if _, ok := tree[e.Callee]; ok {
				continue
			}
			tree[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return tree
}

// ChainTo reconstructs the call chain root → ... → n from a
// ReachableFrom tree. It returns nil when n was not reached.
func ChainTo(tree map[*FuncNode]*CallEdge, n *FuncNode) []*FuncNode {
	e, ok := tree[n]
	if !ok {
		return nil
	}
	chain := []*FuncNode{n}
	for e != nil {
		n = e.Caller
		chain = append(chain, n)
		e = tree[n]
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// ChainString renders a call chain as "a → b → c", eliding the middle
// of very long chains.
func ChainString(chain []*FuncNode) string {
	const maxShown = 5
	names := make([]string, 0, len(chain))
	if len(chain) <= maxShown {
		for _, n := range chain {
			names = append(names, n.Name)
		}
	} else {
		for _, n := range chain[:2] {
			names = append(names, n.Name)
		}
		names = append(names, fmt.Sprintf("… %d calls …", len(chain)-4))
		for _, n := range chain[len(chain)-2:] {
			names = append(names, n.Name)
		}
	}
	return strings.Join(names, " → ")
}

// SCCs returns the strongly connected components of the graph in
// bottom-up order: every edge leaving a component points to an earlier
// component, so iterating the result visits callees before callers.
// Analyzers use this to propagate per-function summary facts without
// worrying about recursion.
func (g *CallGraph) SCCs() [][]*FuncNode {
	// Tarjan, iterative. index/lowlink per node.
	index := make(map[*FuncNode]int, len(g.order))
	lowlink := make(map[*FuncNode]int, len(g.order))
	onStack := make(map[*FuncNode]bool, len(g.order))
	var stack []*FuncNode
	var comps [][]*FuncNode
	next := 0

	type frame struct {
		n  *FuncNode
		ei int
	}
	for _, start := range g.order {
		if _, seen := index[start]; seen {
			continue
		}
		work := []frame{{n: start}}
		index[start], lowlink[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ei < len(f.n.Out) {
				callee := f.n.Out[f.ei].Callee
				f.ei++
				if _, seen := index[callee]; !seen {
					index[callee], lowlink[callee] = next, next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					work = append(work, frame{n: callee})
				} else if onStack[callee] && index[callee] < lowlink[f.n] {
					lowlink[f.n] = index[callee]
				}
				continue
			}
			// Node finished: pop component if root.
			n := f.n
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if lowlink[n] < lowlink[p] {
					lowlink[p] = lowlink[n]
				}
			}
			if lowlink[n] == index[n] {
				var comp []*FuncNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// builder carries the two-phase construction state.
type builder struct {
	g *CallGraph

	// hotLines maps filename → set of lines carrying a //hot comment;
	// coldLines is the same for //cold.
	hotLines  map[string]map[int]bool
	coldLines map[string]map[int]bool

	ifaceSites   []pendingSite // interface method calls, phase-2 resolved
	dynSites     []pendingSite // function-value calls, phase-2 resolved
	ifaceAddrSig []string      // method-value-of-interface shapes: mark impls address-taken

	// fieldFuncs lists the functions assigned to each struct field, by
	// the field's declaration position; regFields are the fields
	// registered as callbacks. Phase 2 joins them.
	fieldFuncs map[string][]*FuncNode
	regFields  []regField
}

// regField is a struct field registered as a callback with role.
type regField struct {
	key  string
	role Role
}

type pendingSite struct {
	caller *FuncNode
	name   string // method name for interface sites, "" for dynamic
	sig    string
}

// simPkgSuffix is the import-path suffix identifying the simulator
// core whose Env/Ticker registration methods define callback roots.
const simPkgSuffix = "internal/sim"

// BuildCallGraph constructs the call graph for a set of type-checked
// packages, which must share one FileSet.
func BuildCallGraph(units []*load.Package) *CallGraph {
	g := &CallGraph{nodes: map[string]*FuncNode{}, results: map[string]interface{}{}}
	b := &builder{g: g, hotLines: map[string]map[int]bool{}, coldLines: map[string]map[int]bool{},
		fieldFuncs: map[string][]*FuncNode{}}
	for _, u := range units {
		for _, f := range u.Files {
			b.scanHotComments(u.Fset, f)
		}
	}
	for _, u := range units {
		for _, f := range u.Files {
			b.walkFile(u, f)
		}
	}
	b.resolvePending()
	return g
}

// scanHotComments indexes the lines of every `//hot` and `//cold`
// annotation. Like //go:build, the marker must be flush against the
// comment slashes — "// hot paths are scanned" is prose, "//hot" is an
// annotation — so doc text about the convention cannot mint roots.
func (b *builder) scanHotComments(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			var lines map[string]map[int]bool
			switch marker(c.Text) {
			case "hot":
				lines = b.hotLines
			case "cold":
				lines = b.coldLines
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			if lines[pos.Filename] == nil {
				lines[pos.Filename] = map[int]bool{}
			}
			lines[pos.Filename][pos.Line] = true
		}
	}
}

// marker classifies a raw comment as a flush //hot or //cold
// annotation (bare, or followed by a space/colon and a reason).
func marker(text string) string {
	if !strings.HasPrefix(text, "//") {
		return "" // /* */ comments are never annotations
	}
	text = text[2:]
	for _, m := range [...]string{"hot", "cold"} {
		rest, ok := strings.CutPrefix(text, m)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == ':') {
			return m
		}
	}
	return ""
}

// hotAt reports whether a declaration starting at pos is covered by a
// //hot annotation (same line or the line above).
func (b *builder) hotAt(fset *token.FileSet, pos token.Pos) bool {
	return markedAt(b.hotLines, fset, pos)
}

// coldAt is hotAt for //cold annotations.
func (b *builder) coldAt(fset *token.FileSet, pos token.Pos) bool {
	return markedAt(b.coldLines, fset, pos)
}

func markedAt(marks map[string]map[int]bool, fset *token.FileSet, pos token.Pos) bool {
	at := fset.Position(pos)
	lines := marks[at.Filename]
	return lines != nil && (lines[at.Line] || lines[at.Line-1])
}

// ensure returns the node with the given ID, creating a stub if new.
func (b *builder) ensure(id string) *FuncNode {
	if n := b.g.nodes[id]; n != nil {
		return n
	}
	n := &FuncNode{ID: id, Name: id}
	b.g.nodes[id] = n
	b.g.order = append(b.g.order, n)
	return n
}

// funcID returns the stable node ID for a declared function.
func funcID(fn *types.Func) string { return fn.FullName() }

// sigShape normalizes a signature to its parameter/result type shape,
// qualified by full package path so the string is identical across the
// loader's type-checking universes. The receiver is excluded.
func sigShape(sig *types.Signature) string {
	if sig == nil {
		return ""
	}
	qual := func(p *types.Package) string { return p.Path() }
	var sb strings.Builder
	sb.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		t := sig.Params().At(i).Type()
		if sig.Variadic() && i == sig.Params().Len()-1 {
			sb.WriteString("...")
		}
		sb.WriteString(types.TypeString(t, qual))
	}
	sb.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	sb.WriteByte(')')
	return sb.String()
}

// shortFuncName renders a display name for a declared function.
func shortFuncName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		return fmt.Sprintf("(%s).%s", types.TypeString(recv, func(p *types.Package) string { return p.Name() }), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// walkFile creates nodes for every declared function in the file and
// walks their bodies.
func (b *builder) walkFile(u *load.Package, f *ast.File) {
	pos := u.Fset.Position(f.Pos())
	isTest := strings.HasSuffix(pos.Filename, "_test.go")
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		obj, _ := u.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		n := b.ensure(funcID(obj))
		n.Name = shortFuncName(obj)
		n.PkgPath = u.PkgPath
		n.Decl = fd
		n.InTestFile = isTest
		n.Info = u.Info
		n.method = fd.Recv != nil
		if sig, ok := obj.Type().(*types.Signature); ok {
			n.sig = sigShape(sig)
		}
		if b.hotAt(u.Fset, fd.Pos()) || docHasMarker(fd.Doc, "hot") {
			n.Roles |= RoleHot
		}
		if b.coldAt(u.Fset, fd.Pos()) || docHasMarker(fd.Doc, "cold") {
			n.Cold = true
		}
		if fd.Body != nil {
			b.walkBody(u, n, fd.Body, isTest)
		}
	}
}

// docHasMarker reports whether a doc comment carries a flush //hot or
// //cold line (want is "hot" or "cold").
func docHasMarker(doc *ast.CommentGroup, want string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if marker(c.Text) == want {
			return true
		}
	}
	return false
}

// litID returns the stable node ID for a function literal.
func (b *builder) litID(u *load.Package, lit *ast.FuncLit) string {
	p := u.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s.func@%s:%d:%d", u.PkgPath, shortFile(p.Filename), p.Line, p.Column)
}

// shortFile trims a filename to its base for stable, readable IDs.
func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// litNode creates (or returns) the node for a function literal.
func (b *builder) litNode(u *load.Package, lit *ast.FuncLit, isTest bool) *FuncNode {
	id := b.litID(u, lit)
	n := b.ensure(id)
	if n.Lit == nil {
		p := u.Fset.Position(lit.Pos())
		n.Name = fmt.Sprintf("func@%s:%d", shortFile(p.Filename), p.Line)
		n.PkgPath = u.PkgPath
		n.Lit = lit
		n.InTestFile = isTest
		n.Info = u.Info
		if sig, ok := u.Info.Types[lit].Type.(*types.Signature); ok {
			n.sig = sigShape(sig)
		}
		if b.hotAt(u.Fset, lit.Pos()) {
			n.Roles |= RoleHot
		}
		if b.coldAt(u.Fset, lit.Pos()) {
			n.Cold = true
		}
	}
	return n
}

// addEdge appends a resolved call edge.
func (b *builder) addEdge(caller, callee *FuncNode, kind EdgeKind) {
	caller.Out = append(caller.Out, &CallEdge{Caller: caller, Callee: callee, Kind: kind})
}

// walkBody resolves the call sites and function-value uses of one
// function body. Nested literals become their own nodes and are walked
// recursively; the outer walk does not descend into them.
func (b *builder) walkBody(u *load.Package, n *FuncNode, body *ast.BlockStmt, isTest bool) {
	// callPos marks expressions in call position, so a *types.Func use
	// is only "address taken" when it is not the operand of a call.
	// selIdents suppresses the bare Sel identifier of every selector:
	// x.M resolves through noteMethodValue, never as a plain ident use.
	callPos := map[ast.Expr]bool{}
	selIdents := map[*ast.Ident]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			lit := b.litNode(u, node, isTest)
			b.walkBody(u, lit, node.Body, isTest)
			if !callPos[ast.Expr(node)] {
				lit.addrTaken = true
			}
			return false
		case *ast.CallExpr:
			fun := ast.Unparen(node.Fun)
			callPos[fun] = true
			b.resolveCall(u, n, node, fun)
		case *ast.Ident:
			if !selIdents[node] {
				b.noteFuncUse(u, node, callPos[ast.Expr(node)])
			}
		case *ast.SelectorExpr:
			selIdents[node.Sel] = true
			b.noteMethodValue(u, node, callPos[ast.Expr(node)])
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) && !isTest {
				for i, lhs := range node.Lhs {
					if key := fieldKey(u, lhs); key != "" {
						if fn := b.funcValue(u, node.Rhs[i]); fn != nil {
							b.fieldFuncs[key] = append(b.fieldFuncs[key], fn)
						}
					}
				}
			}
		}
		return true
	})
}

// fieldKey identifies the struct field e selects (x.f) by its
// declaration position, which is the same in every type-checking
// universe; "" when e is not a field selector.
func fieldKey(u *load.Package, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, ok := u.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return u.Fset.Position(s.Obj().Pos()).String()
	}
	return ""
}

// funcValue returns the node of the function e denotes as a value — a
// literal, a named function, or a concrete method value — else nil.
func (b *builder) funcValue(u *load.Package, e ast.Expr) *FuncNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return b.litNode(u, e, false)
	case *ast.Ident:
		if obj, ok := u.Info.Uses[e].(*types.Func); ok {
			return b.ensure(funcID(obj))
		}
	case *ast.SelectorExpr:
		if s, ok := u.Info.Selections[e]; ok && s.Kind() == types.MethodVal {
			if m, ok := s.Obj().(*types.Func); ok && !types.IsInterface(recvType(m)) {
				return b.ensure(funcID(m))
			}
		} else if obj, ok := u.Info.Uses[e.Sel].(*types.Func); ok {
			return b.ensure(funcID(obj)) // package-qualified: pkg.F
		}
	}
	return nil
}

// resolveCall classifies one call site and records the edge (or a
// pending site for phase 2).
func (b *builder) resolveCall(u *load.Package, caller *FuncNode, call *ast.CallExpr, fun ast.Expr) {
	// Type conversions look like calls; skip them.
	if tv, ok := u.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		lit := b.litNode(u, fun, caller.InTestFile)
		b.addEdge(caller, lit, EdgeClosure)
		return
	case *ast.Ident:
		switch obj := u.Info.Uses[fun].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			callee := b.ensure(funcID(obj))
			if callee.Name == callee.ID {
				callee.Name = shortFuncName(obj)
			}
			b.addEdge(caller, callee, EdgeStatic)
			b.noteRegistration(u, caller, obj, call)
			return
		case *types.TypeName:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			if types.IsInterface(recvType(m)) {
				b.ifaceSites = append(b.ifaceSites, pendingSite{
					caller: caller, name: m.Name(), sig: sigShape(m.Type().(*types.Signature)),
				})
				return
			}
			callee := b.ensure(funcID(m))
			if callee.Name == callee.ID {
				callee.Name = shortFuncName(m)
			}
			b.addEdge(caller, callee, EdgeStatic)
			b.noteRegistration(u, caller, m, call)
			return
		}
		// Package-qualified function: p.F resolves through Uses.
		if obj, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
			callee := b.ensure(funcID(obj))
			if callee.Name == callee.ID {
				callee.Name = shortFuncName(obj)
			}
			b.addEdge(caller, callee, EdgeStatic)
			b.noteRegistration(u, caller, obj, call)
			return
		}
	}
	// A call through a function value.
	if sig, ok := typeOf(u, fun).(*types.Signature); ok {
		b.dynSites = append(b.dynSites, pendingSite{caller: caller, sig: sigShape(sig)})
	}
}

// recvType returns the receiver type of a method, nil for functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func typeOf(u *load.Package, e ast.Expr) types.Type {
	if tv, ok := u.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// noteFuncUse marks a named function referenced outside call position
// as address-taken.
func (b *builder) noteFuncUse(u *load.Package, id *ast.Ident, inCallPos bool) {
	if inCallPos {
		return
	}
	obj, ok := u.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	b.markTaken(obj)
}

// markTaken records a declared function as address-taken.
func (b *builder) markTaken(obj *types.Func) {
	n := b.ensure(funcID(obj))
	if n.Name == n.ID {
		n.Name = shortFuncName(obj)
	}
	if n.sig == "" {
		if sig, ok := obj.Type().(*types.Signature); ok {
			n.sig = sigShape(sig)
		}
	}
	n.addrTaken = true
}

// noteMethodValue marks function values built from selectors as
// address-taken: package-qualified functions and concrete method
// values directly, interface method values by marking every
// same-shaped implementation in phase 2.
func (b *builder) noteMethodValue(u *load.Package, sel *ast.SelectorExpr, inCallPos bool) {
	if inCallPos {
		return
	}
	s, ok := u.Info.Selections[sel]
	if !ok {
		// No selection: a package-qualified reference like pkg.F.
		if obj, ok := u.Info.Uses[sel.Sel].(*types.Func); ok {
			b.markTaken(obj)
		}
		return
	}
	if s.Kind() != types.MethodVal {
		return
	}
	m := s.Obj().(*types.Func)
	if types.IsInterface(recvType(m)) {
		b.ifaceAddrSig = append(b.ifaceAddrSig, m.Name()+"|"+sigShape(m.Type().(*types.Signature)))
		return
	}
	b.markTaken(m)
}

// simEnvMethod reports whether fn is a method named one of names on a
// type declared in a package whose import path ends in simPkgSuffix.
func simEnvMethod(fn *types.Func, names ...string) bool {
	if fn.Pkg() == nil || !PathHasSuffixSegments(fn.Pkg().Path(), simPkgSuffix) {
		return false
	}
	if recvType(fn) == nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// noteRegistration marks callback roles: function-typed arguments of
// Env.At/Env.After/Ticker.Subscribe become timer callbacks, the body
// argument of Env.Go becomes a process body. Registrations made from
// test files do not create roots: the runtime contracts bind
// production code.
func (b *builder) noteRegistration(u *load.Package, caller *FuncNode, callee *types.Func, call *ast.CallExpr) {
	if caller.InTestFile {
		return
	}
	var role Role
	switch {
	case simEnvMethod(callee, "At", "After", "Subscribe"):
		role = RoleTimerCallback
	case simEnvMethod(callee, "Go"):
		role = RoleProcBody
	default:
		return
	}
	for _, arg := range call.Args {
		if sig, ok := typeOf(u, arg).(*types.Signature); !ok || sig == nil {
			continue
		}
		if key := fieldKey(u, arg); key != "" {
			b.regFields = append(b.regFields, regField{key, role})
		} else if fn := b.funcValue(u, arg); fn != nil {
			fn.Roles |= role
		}
	}
}

// resolvePending runs phase 2: registered fields give their roles to
// the functions assigned to them, interface sites fan out to
// same-shaped methods, interface method values mark implementations
// address-taken, and dynamic sites fan out to address-taken functions.
func (b *builder) resolvePending() {
	for _, f := range b.regFields {
		for _, fn := range b.fieldFuncs[f.key] {
			fn.Roles |= f.role
		}
	}
	// Index defined methods and address-taken candidates by shape.
	methodsByShape := map[string][]*FuncNode{}
	for _, n := range b.g.order {
		if n.Defined() && n.method {
			name := n.Decl.Name.Name
			methodsByShape[name+"|"+n.sig] = append(methodsByShape[name+"|"+n.sig], n)
		}
	}
	for _, key := range b.ifaceAddrSig {
		for _, m := range methodsByShape[key] {
			m.addrTaken = true
		}
	}
	for i := range b.ifaceSites {
		s := &b.ifaceSites[i]
		for _, m := range methodsByShape[s.name+"|"+s.sig] {
			b.addEdge(s.caller, m, EdgeInterface)
		}
	}
	takenByShape := map[string][]*FuncNode{}
	for _, n := range b.g.order {
		if n.addrTaken && n.sig != "" {
			takenByShape[n.sig] = append(takenByShape[n.sig], n)
		}
	}
	for i := range b.dynSites {
		s := &b.dynSites[i]
		for _, t := range takenByShape[s.sig] {
			b.addEdge(s.caller, t, EdgeDynamic)
		}
	}
}
