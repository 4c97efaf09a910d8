package reason

import (
	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// lit is one GED literal lowered onto its rule's dense binding vector —
// the vector the matcher binds, indexed by each variable's position in
// the pattern's Vars() — with its attributes resolved to the interned
// ids of one snapshot lineage, so evaluating it reads two vector slots
// and the node's attribute tuple, never a map.
type lit struct {
	kind     ged.LiteralKind
	li, ri   int
	la, ra   graph.Attr // names, kept for re-resolution
	lid, rid int32      // resolved ids; -1: no node carries the attribute
	c        graph.Value
}

// Lits is a rule's antecedent X and consequent Y lowered for evaluation
// on binding vectors (see Violated). A Lits is resolved against one
// snapshot lineage and is immutable; Resolve derives the form for
// another snapshot.
type Lits struct {
	x, y    []lit
	lineage uint64
	// open reports an attribute that did not resolve: a later snapshot
	// of the lineage may have interned it since.
	open bool
}

// LowerLits lowers d's literals onto its pattern's variable positions
// and resolves their attributes against snap. It panics on a literal
// that is not one of the three GED forms, as validation always has.
func LowerLits(d *ged.GED, snap *graph.Snapshot) *Lits {
	vars := d.Pattern.Vars()
	pos := func(x pattern.Var) int {
		for i, v := range vars {
			if v == x {
				return i
			}
		}
		return 0
	}
	lower := func(ls []ged.Literal) []lit {
		out := make([]lit, len(ls))
		for i, l := range ls {
			k, ok := l.Kind()
			if !ok {
				panic("reason: non-GED literal in validation")
			}
			cl := lit{kind: k, li: pos(l.Left.Var)}
			switch k {
			case ged.ConstLiteral:
				cl.la, cl.c = l.Left.Attr, l.Right.Const
			case ged.VarLiteral:
				cl.la, cl.ri, cl.ra = l.Left.Attr, pos(l.Right.Var), l.Right.Attr
			default: // IDLiteral
				cl.ri = pos(l.Right.Var)
			}
			out[i] = cl
		}
		return out
	}
	ls := &Lits{x: lower(d.X), y: lower(d.Y)}
	ls.resolve(snap)
	return ls
}

// Resolve returns ls with its attributes resolved against snap. Within
// a lineage attribute ids are append-only, so a Lits whose attributes
// all resolved serves every snapshot of its lineage as it is; otherwise
// the result is a resolved copy.
func (ls *Lits) Resolve(snap *graph.Snapshot) *Lits {
	if ls.lineage == snap.Lineage() && !ls.open {
		return ls
	}
	c := &Lits{x: append([]lit(nil), ls.x...), y: append([]lit(nil), ls.y...)}
	c.resolve(snap)
	return c
}

func (ls *Lits) resolve(snap *graph.Snapshot) {
	ls.lineage, ls.open = snap.Lineage(), false
	id := func(a graph.Attr) int32 {
		if n, ok := snap.AttrID(a); ok {
			return n
		}
		ls.open = true
		return -1
	}
	for _, s := range [][]lit{ls.x, ls.y} {
		for i := range s {
			l := &s[i]
			if l.kind != ged.IDLiteral {
				l.lid = id(l.la)
			}
			if l.kind == ged.VarLiteral {
				l.rid = id(l.ra)
			}
		}
	}
}

// holds evaluates l on a complete binding with the paper's existence
// semantics (a literal over a missing attribute is false) — the answer
// HoldsInGraph gives for the same match.
func (l *lit) holds(snap *graph.Snapshot, bind []graph.NodeID) bool {
	switch l.kind {
	case ged.ConstLiteral:
		if l.lid < 0 {
			return false
		}
		v, ok := snap.AttrValueID(bind[l.li], l.lid)
		return ok && v.Equal(l.c)
	case ged.VarLiteral:
		if l.lid < 0 || l.rid < 0 {
			return false
		}
		v1, ok1 := snap.AttrValueID(bind[l.li], l.lid)
		v2, ok2 := snap.AttrValueID(bind[l.ri], l.rid)
		return ok1 && ok2 && v1.Equal(v2)
	default: // IDLiteral
		return bind[l.li] == bind[l.ri]
	}
}

// Violated evaluates the rule on a complete binding of its pattern: the
// index in Y of the first consequent literal the binding fails when it
// satisfies every antecedent literal, -1 otherwise. ls must be resolved
// against snap's lineage.
func (ls *Lits) Violated(snap *graph.Snapshot, bind []graph.NodeID) int {
	for i := range ls.x {
		if !ls.x[i].holds(snap, bind) {
			return -1
		}
	}
	for i := range ls.y {
		if !ls.y[i].holds(snap, bind) {
			return i
		}
	}
	return -1
}

// ViolationOf materializes the violation of d by a complete binding
// vector of its pattern that fails d.Y[fail] (see Violated): the Match
// map is built here, once per violation, and the literal is d's own.
func ViolationOf(d *ged.GED, bind []graph.NodeID, fail int) Violation {
	vars := d.Pattern.Vars()
	m := make(pattern.Match, len(vars))
	for i, x := range vars {
		m[x] = bind[i]
	}
	return Violation{GED: d, Match: m, Literal: &d.Y[fail]}
}
