package framework

import (
	"fmt"
	"sort"
	"strings"
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeClosure:
		return "closure"
	case EdgeInterface:
		return "interface"
	case EdgeDynamic:
		return "dynamic"
	}
	return "unknown"
}

func (n *FuncNode) String() string { return n.Name }

// Node returns the node with the given ID, or nil.
func (g *CallGraph) Node(id string) *FuncNode { return g.nodes[id] }

// DumpString renders the graph deterministically for golden tests:
// nodes sorted by ID, each followed by its outgoing edges sorted by
// (kind, callee).
func (g *CallGraph) DumpString() string {
	nodes := make([]*FuncNode, 0, len(g.order))
	for _, n := range g.order {
		if n.Defined() {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	var sb strings.Builder
	for _, n := range nodes {
		var roles []string
		if n.Roles&RoleHot != 0 {
			roles = append(roles, "hot")
		}
		if n.Roles&RoleTimerCallback != 0 {
			roles = append(roles, "timer")
		}
		if n.Roles&RoleProcBody != 0 {
			roles = append(roles, "proc")
		}
		if n.Cold {
			roles = append(roles, "cold")
		}
		tag := ""
		if len(roles) > 0 {
			tag = " [" + strings.Join(roles, ",") + "]"
		}
		if n.addrTaken {
			tag += " &"
		}
		fmt.Fprintf(&sb, "node %s%s\n", n.ID, tag)
		edges := make([]string, 0, len(n.Out))
		for _, e := range n.Out {
			edges = append(edges, fmt.Sprintf("  %s -> %s", e.Kind, e.Callee.ID))
		}
		sort.Strings(edges)
		for _, e := range edges {
			sb.WriteString(e)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
