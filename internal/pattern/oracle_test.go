package pattern

import (
	"fmt"
	"sort"

	"gedlib/internal/graph"
)

// bruteForceMatches is the reference the matcher is tested against. It
// tries every assignment of p's variables to g's nodes, in declaration
// order, and keeps those under which every constraint holds:
//
//   - a variable labeled ι maps to a node labeled ι, or anywhere when ι
//     is the wildcard (⪯; a concrete label never matches a '_' node);
//   - a pattern edge with a concrete label needs a host edge with
//     exactly that label; a wildcard-labeled pattern edge needs any
//     host edge between the two nodes (self-loops included);
//   - a filter x.A = c needs x's node to carry A with value c; filters
//     naming variables p does not have are ignored, as in the matcher.
//
// It reads only the mutable graph's node and edge lists — no snapshot,
// index, plan order or intersection — so it shares no code with the
// matcher. A partial assignment is abandoned as soon as a constraint
// among its bound variables fails, which leaves the result unchanged
// and keeps the search affordable on the generated graphs. The result
// is canonical: one "x=1;y=2;" string per match, variables in
// declaration order, sorted.
func bruteForceMatches(p *Pattern, g *graph.Graph, filters []ConstFilter) []string {
	type edgeKey struct {
		src, dst graph.NodeID
		label    graph.Label
	}
	exact := make(map[edgeKey]bool)
	anyEdge := make(map[[2]graph.NodeID]bool)
	for _, e := range g.Edges() {
		exact[edgeKey{e.Src, e.Dst, e.Label}] = true
		anyEdge[[2]graph.NodeID{e.Src, e.Dst}] = true
	}
	vars := p.Vars()
	pos := make(map[Var]int, len(vars))
	for i, x := range vars {
		pos[x] = i
	}
	bind := make([]graph.NodeID, len(vars))
	// holds checks every constraint whose variables are all bound once
	// variable i is: i's label and filters, and its edges to variables
	// 0..i.
	holds := func(i int) bool {
		n := bind[i]
		if l := p.Label(vars[i]); l != graph.Wildcard && l != g.Label(n) {
			return false
		}
		for _, f := range filters {
			if f.Var != vars[i] {
				continue
			}
			if v, ok := g.Attr(n, f.Attr); !ok || !v.Equal(f.Value) {
				return false
			}
		}
		for _, e := range p.Edges() {
			s, d := pos[e.Src], pos[e.Dst]
			if s > i || d > i || (s != i && d != i) {
				continue
			}
			if e.Label == graph.Wildcard {
				if !anyEdge[[2]graph.NodeID{bind[s], bind[d]}] {
					return false
				}
			} else if !exact[edgeKey{bind[s], bind[d], e.Label}] {
				return false
			}
		}
		return true
	}
	var out []string
	var assign func(i int)
	assign = func(i int) {
		if i == len(vars) {
			s := ""
			for j, x := range vars {
				s += fmt.Sprintf("%s=%d;", x, bind[j])
			}
			out = append(out, s)
			return
		}
		for _, n := range g.Nodes() {
			bind[i] = n
			if holds(i) {
				assign(i + 1)
			}
		}
	}
	assign(0)
	sort.Strings(out)
	return out
}

// canonOf renders matches in bruteForceMatches' canonical form.
func canonOf(p *Pattern, ms []Match) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		s := ""
		for _, x := range p.Vars() {
			s += fmt.Sprintf("%s=%d;", x, m[x])
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
