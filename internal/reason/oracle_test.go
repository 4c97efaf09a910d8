package reason

import (
	"fmt"
	"slices"
	"sort"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// bruteForceViolations is the reference the validators are tested
// against. For every GED of sigma it tries every assignment of the
// pattern's variables to g's nodes, in declaration order, and keeps the
// assignments that are matches — node labels under ⪯, concrete edge
// labels exactly, wildcard edge labels as any edge, self-loops
// included — whose antecedent holds and some consequent literal fails,
// reporting the first failing one as &d.Y[i], the literal itself rather
// than a copy. Labels, edges and attributes are read from the mutable
// graph's own lists and maps, so the reference shares no code with the
// snapshot, the matcher or the validators. A partial assignment is
// abandoned as soon as a label or edge among its bound variables fails,
// which leaves the result unchanged.
//
// The result is in canonical order: GED index, then the bindings
// rendered "x=1;y=2;" in variable order, compared as strings.
func bruteForceViolations(g *graph.Graph, sigma ged.Set) []Violation {
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
	holds := func(l ged.Literal, m pattern.Match) bool {
		k, _ := l.Kind()
		switch k {
		case ged.ConstLiteral:
			v, ok := g.Attrs(m[l.Left.Var])[l.Left.Attr]
			return ok && v.Equal(l.Right.Const)
		case ged.VarLiteral:
			v1, ok1 := g.Attrs(m[l.Left.Var])[l.Left.Attr]
			v2, ok2 := g.Attrs(m[l.Right.Var])[l.Right.Attr]
			return ok1 && ok2 && v1.Equal(v2)
		default:
			return m[l.Left.Var] == m[l.Right.Var]
		}
	}
	type keyed struct {
		key string
		v   Violation
	}
	var out []Violation
	for _, d := range sigma {
		vars := d.Pattern.Vars()
		pos := make(map[pattern.Var]int, len(vars))
		for i, x := range vars {
			pos[x] = i
		}
		m := make(pattern.Match, len(vars))
		// matchHolds checks the labels and edges that become decidable
		// once variable i is bound.
		matchHolds := func(i int) bool {
			if l := d.Pattern.Label(vars[i]); l != graph.Wildcard && l != g.Label(m[vars[i]]) {
				return false
			}
			for _, e := range d.Pattern.Edges() {
				s, t := pos[e.Src], pos[e.Dst]
				if s > i || t > i || (s != i && t != i) {
					continue
				}
				if e.Label == graph.Wildcard {
					if !anyEdge[[2]graph.NodeID{m[e.Src], m[e.Dst]}] {
						return false
					}
				} else if !exact[edgeKey{m[e.Src], m[e.Dst], e.Label}] {
					return false
				}
			}
			return true
		}
		var found []keyed
		var assign func(i int)
		assign = func(i int) {
			if i < len(vars) {
				for _, n := range g.Nodes() {
					m[vars[i]] = n
					if matchHolds(i) {
						assign(i + 1)
					}
				}
				return
			}
			for _, l := range d.X {
				if !holds(l, m) {
					return
				}
			}
			for i := range d.Y {
				if !holds(d.Y[i], m) {
					key := ""
					for _, x := range vars {
						key += fmt.Sprintf("%s=%d;", x, m[x])
					}
					found = append(found, keyed{key, Violation{GED: d, Match: m.Clone(), Literal: &d.Y[i]}})
					return
				}
			}
		}
		assign(0)
		sort.Slice(found, func(a, b int) bool { return found[a].key < found[b].key })
		for _, f := range found {
			out = append(out, f.v)
		}
	}
	return out
}

// touching keeps the violations whose match binds one of nodes.
func touching(vs []Violation, nodes []graph.NodeID) []Violation {
	var out []Violation
	for _, v := range vs {
		for _, n := range v.Match {
			if slices.Contains(nodes, n) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}
