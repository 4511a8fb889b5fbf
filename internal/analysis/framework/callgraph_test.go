package framework_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/analysis/framework"
	"github.com/disagg/smartds/internal/analysis/load"
)

// loadFixture type-checks one fixture package.
func loadFixture(t *testing.T, pkgpath string) []*load.Package {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(wd, "testdata", "src", filepath.FromSlash(pkgpath))
	l := load.NewLoader()
	pkgs, err := l.DirAs(dir, pkgpath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture type error: %v", terr)
		}
	}
	return pkgs
}

// TestCallGraphGolden pins the exact node, edge, and role structure
// the builder produces for the fixture: static calls, an immediately
// invoked closure, conservative interface fan-out, dynamic fan-out to
// address-taken functions, and the three root roles.
func TestCallGraphGolden(t *testing.T) {
	cg := framework.BuildCallGraph(loadFixture(t, "example.com/internal/sim"))
	const want = `node (*example.com/internal/sim.Env).At
node (*example.com/internal/sim.Env).Go
node (*example.com/internal/sim.disk).Put
node (*example.com/internal/sim.mem).Put
  static -> example.com/internal/sim.alloc
node example.com/internal/sim.alloc
node example.com/internal/sim.dispatch [hot]
  closure -> example.com/internal/sim.func@graph.go:40:2
  dynamic -> example.com/internal/sim.func@graph.go:34:10
  dynamic -> example.com/internal/sim.helper
  dynamic -> example.com/internal/sim.onTimer
  interface -> (*example.com/internal/sim.disk).Put
  interface -> (*example.com/internal/sim.mem).Put
  static -> (*example.com/internal/sim.Env).At
  static -> (*example.com/internal/sim.Env).At
  static -> (*example.com/internal/sim.Env).Go
  static -> example.com/internal/sim.helper
node example.com/internal/sim.func@graph.go:34:10 [timer] &
  static -> example.com/internal/sim.helper
node example.com/internal/sim.func@graph.go:40:2
  static -> example.com/internal/sim.helper
node example.com/internal/sim.helper &
node example.com/internal/sim.onTimer [timer] &
node example.com/internal/sim.worker [proc] &
`
	got := cg.DumpString()
	if got != want {
		t.Errorf("call graph mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReachabilityAndChains covers the BFS tree helpers: hot roots
// reach the static/closure succession but an edge filter cuts the
// dynamic over-approximation.
func TestReachabilityAndChains(t *testing.T) {
	cg := framework.BuildCallGraph(loadFixture(t, "example.com/internal/sim"))
	roots := cg.Roots(framework.RoleHot)
	if len(roots) != 1 || roots[0].Name != "sim.dispatch" {
		t.Fatalf("hot roots = %v, want [sim.dispatch]", roots)
	}
	// Follow everything: the dynamic edges pull in onTimer.
	all := cg.ReachableFrom(roots, nil)
	onTimer := cg.Node("example.com/internal/sim.onTimer")
	if _, ok := all[onTimer]; !ok {
		t.Errorf("onTimer not reachable with unfiltered edges")
	}
	// Cut dynamic edges: onTimer is only a dynamic target.
	direct := cg.ReachableFrom(roots, func(e *framework.CallEdge) bool {
		return e.Kind != framework.EdgeDynamic
	})
	if _, ok := direct[onTimer]; ok {
		t.Errorf("onTimer reachable despite dynamic-edge filter")
	}
	alloc := cg.Node("example.com/internal/sim.alloc")
	chain := framework.ChainTo(direct, alloc)
	want := "sim.dispatch → (*sim.mem).Put → sim.alloc"
	if got := framework.ChainString(chain); got != want {
		t.Errorf("chain = %q, want %q", got, want)
	}
}

// TestSCCsBottomUp pins that callees appear before callers.
func TestSCCsBottomUp(t *testing.T) {
	cg := framework.BuildCallGraph(loadFixture(t, "example.com/internal/sim"))
	pos := map[string]int{}
	for i, comp := range cg.SCCs() {
		for _, n := range comp {
			pos[n.ID] = i
		}
	}
	if pos["example.com/internal/sim.alloc"] >= pos["(*example.com/internal/sim.mem).Put"] {
		t.Errorf("alloc SCC (%d) should come before (*mem).Put SCC (%d)",
			pos["example.com/internal/sim.alloc"], pos["(*example.com/internal/sim.mem).Put"])
	}
	if pos["(*example.com/internal/sim.mem).Put"] >= pos["example.com/internal/sim.dispatch"] {
		t.Errorf("(*mem).Put SCC should come before dispatch SCC")
	}
}

// TestBoundFieldRoles pins that a callback registered through a struct
// field takes its role to every function assigned to that field, and
// only to those.
func TestBoundFieldRoles(t *testing.T) {
	cg := framework.BuildCallGraph(loadFixture(t, "example.com/bound/internal/sim"))
	for id, want := range map[string]framework.Role{
		"(*example.com/bound/internal/sim.op).run":  framework.RoleProcBody,
		"(*example.com/bound/internal/sim.op).tick": framework.RoleTimerCallback,
		"example.com/bound/internal/sim.unbound":    0,
		"example.com/bound/internal/sim.work":       0,
	} {
		n := cg.Node(id)
		if n == nil {
			t.Fatalf("no node %s", id)
		}
		if n.Roles != want {
			t.Errorf("%s roles = %b, want %b", id, n.Roles, want)
		}
	}
	for _, n := range cg.Roots(framework.RoleProcBody | framework.RoleTimerCallback) {
		if n.Lit != nil {
			t.Errorf("literal %s stored in an unregistered field is a root", n.Name)
		}
	}
}

// TestRoleRegistrationFromTests pins that registrations made inside
// _test.go files do not mint roots.
func TestRoleRegistrationFromTests(t *testing.T) {
	units := loadFixture(t, "example.com/internal/sim")
	cg := framework.BuildCallGraph(units)
	for _, n := range cg.Roots(framework.RoleTimerCallback | framework.RoleProcBody) {
		if n.InTestFile {
			t.Errorf("test-file node %s carries a callback role", n.Name)
		}
	}
	if !strings.Contains(cg.DumpString(), "[proc]") {
		t.Errorf("no proc root found at all")
	}
}
