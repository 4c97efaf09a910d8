// Package tgd implements graph tuple-generating dependencies, the
// "other practical forms of graph dependencies, e.g., TGDs" the paper
// names as future work (Section 9). GEDs already cover the
// attribute-generating fragment (Section 3: Q[x](∅ → x.A = x.A)); the
// TGDs here generate *topology* — nodes and edges:
//
//	σ: Left[x̄]  →  ∃ ȳ  Right[x̄, ȳ]
//
// Every match of the body pattern Left must extend to a match of the
// head pattern Right; head variables not in the body are existential.
// Examples: "every album was recorded by some artist", "every employee
// reports to some employee".
//
// Validation is exact. The chase adds fresh existential nodes and the
// head's edges for every unsatisfied body match (the standard oblivious
// chase); since TGD chases can diverge, Chase refuses sets that are not
// weakly acyclic unless the caller supplies an explicit round budget —
// mirroring the classical treatment the paper cites ([33, 34]).
package tgd

import (
	"fmt"

	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// TGD is a topology-generating dependency Left → ∃ȳ Right.
type TGD struct {
	// Name is an optional identifier.
	Name string
	// Left is the body pattern (universally quantified).
	Left *pattern.Pattern
	// Right is the head pattern; it must contain every body variable
	// (with a ⪯-compatible label) and may add existential variables.
	Right *pattern.Pattern
}

// New returns the TGD Left → ∃ Right.
func New(name string, left, right *pattern.Pattern) *TGD {
	return &TGD{Name: name, Left: left, Right: right}
}

// Validate checks well-formedness: body variables must appear in the
// head with compatible labels, and the head must add something (an
// existential variable or an extra edge).
func (t *TGD) Validate() error {
	if t.Left == nil || t.Right == nil {
		return fmt.Errorf("tgd %s: nil pattern", t.Name)
	}
	for _, v := range t.Left.Vars() {
		if !t.Right.HasVar(v) {
			return fmt.Errorf("tgd %s: body variable %s missing from the head", t.Name, v)
		}
		if !graph.LabelMatches(t.Right.Label(v), t.Left.Label(v)) &&
			!graph.LabelMatches(t.Left.Label(v), t.Right.Label(v)) {
			return fmt.Errorf("tgd %s: variable %s has incompatible labels", t.Name, v)
		}
	}
	if len(t.Existentials()) == 0 && len(t.Right.Edges()) <= len(t.Left.Edges()) {
		return fmt.Errorf("tgd %s: head adds nothing", t.Name)
	}
	return nil
}

// Existentials returns the head-only variables.
func (t *TGD) Existentials() []pattern.Var {
	var out []pattern.Var
	for _, v := range t.Right.Vars() {
		if !t.Left.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// String renders the TGD.
func (t *TGD) String() string {
	return fmt.Sprintf("%s: %s => exists %s", t.Name, t.Left, t.Right)
}

// Set is a finite set of TGDs.
type Set []*TGD

// Validate checks every member.
func (s Set) Validate() error {
	for _, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Violation is a body match with no head extension.
type Violation struct {
	TGD   *TGD
	Match pattern.Match
}

// Validate finds the body matches of Σ in G that do not extend to the
// head, up to limit (≤ 0 means all).
func Validate(g *graph.Graph, sigma Set, limit int) []Violation {
	var out []Violation
	snap := g.Freeze()
	for _, t := range sigma {
		t := t
		head := pattern.Compile(t.Right, snap)
		pattern.ForEachMatch(t.Left, snap, func(m pattern.Match) bool {
			if !extends(head, m) {
				out = append(out, Violation{TGD: t, Match: m.Clone()})
			}
			return limit <= 0 || len(out) < limit
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Satisfies reports G ⊨ Σ.
func Satisfies(g *graph.Graph, sigma Set) bool {
	return len(Validate(g, sigma, 1)) == 0
}

// extends reports whether the body match m extends to the head plan.
func extends(head *pattern.Plan, m pattern.Match) bool {
	found := false
	head.ForEachBound(m, func(pattern.Match) bool {
		found = true
		return false
	})
	return found
}

// WeaklyAcyclic reports whether the set admits a terminating oblivious
// chase by the classical position-graph test, adapted to labels: there
// is a node per concrete head/body label; for each TGD, every body label
// gets a regular edge to every universal head label and a *special* edge
// to every existential head label. A cycle through a special edge means
// a TGD can keep feeding fresh nodes into (transitively) its own body.
// Wildcard-labeled existentials are conservatively cyclic (they can feed
// any body).
func WeaklyAcyclic(sigma Set) bool {
	type edge struct {
		from, to graph.Label
		special  bool
	}
	var edges []edge
	labels := map[graph.Label]bool{}
	for _, t := range sigma {
		var bodyLabels []graph.Label
		for _, v := range t.Left.Vars() {
			l := t.Left.Label(v)
			bodyLabels = append(bodyLabels, l)
			labels[l] = true
		}
		ex := map[pattern.Var]bool{}
		for _, v := range t.Existentials() {
			ex[v] = true
		}
		for _, v := range t.Right.Vars() {
			l := t.Right.Label(v)
			labels[l] = true
			for _, b := range bodyLabels {
				edges = append(edges, edge{from: b, to: l, special: ex[v]})
			}
		}
	}
	// Wildcards poison the test: a wildcard body matches anything, and a
	// wildcard existential can feed anything. Treat wildcard as adjacent
	// to every label.
	if labels[graph.Wildcard] {
		for l := range labels {
			edges = append(edges, edge{from: graph.Wildcard, to: l, special: false})
			edges = append(edges, edge{from: l, to: graph.Wildcard, special: false})
		}
	}
	// A special edge inside a strongly connected component = cyclic.
	// Small label sets: check reachability pairwise.
	reach := func(from, to graph.Label) bool {
		seen := map[graph.Label]bool{from: true}
		queue := []graph.Label{from}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur == to {
				return true
			}
			for _, e := range edges {
				if e.from == cur && !seen[e.to] {
					seen[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
		return false
	}
	for _, e := range edges {
		if e.special && reach(e.to, e.from) {
			return false
		}
	}
	return true
}

// Result reports a TGD chase.
type Result struct {
	// Graph is the chased graph (the input, mutated).
	Graph *graph.Graph
	// Created counts the fresh existential nodes added.
	Created int
	// Rounds is the number of fixpoint rounds applied.
	Rounds int
	// Complete is false when the round budget ran out before the
	// fixpoint (only possible with an explicit budget).
	Complete bool
}

// Chase runs the oblivious TGD chase on g (mutating it): every body
// match lacking a head extension gets fresh existential nodes and the
// head's edges. maxRounds ≤ 0 requires Σ to be weakly acyclic (an error
// is returned otherwise) and runs to the fixpoint; a positive maxRounds
// bounds the rounds explicitly for sets the test cannot certify.
func Chase(g *graph.Graph, sigma Set, maxRounds int) (*Result, error) {
	if err := sigma.Validate(); err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		if !WeaklyAcyclic(sigma) {
			return nil, fmt.Errorf("tgd: set is not weakly acyclic; pass an explicit round budget")
		}
		maxRounds = 1 << 20 // effectively unbounded; acyclicity terminates it
	}
	res := &Result{Graph: g, Complete: true}
	for round := 0; round < maxRounds; round++ {
		type firing struct {
			t *TGD
			m pattern.Match
		}
		var pending []firing
		snap := g.Freeze()
		heads := make(map[*TGD]*pattern.Plan, len(sigma))
		for _, t := range sigma {
			t := t
			head := pattern.Compile(t.Right, snap)
			heads[t] = head
			pattern.ForEachMatch(t.Left, snap, func(m pattern.Match) bool {
				if !extends(head, m) {
					pending = append(pending, firing{t: t, m: m.Clone()})
				}
				return true
			})
		}
		if len(pending) == 0 {
			res.Rounds = round
			return res, nil
		}
		for _, f := range pending {
			// Re-check: an earlier firing this round may have satisfied
			// it. The snapshot follows g by delta, so each re-check costs
			// the firings since the last one, not a re-freeze of g.
			snap = snap.Apply(g.DeltaSince(snap.SourceVersion()))
			heads[f.t] = heads[f.t].Rebind(snap)
			if extends(heads[f.t], f.m) {
				continue
			}
			assign := f.m.Clone()
			for _, v := range f.t.Existentials() {
				l := f.t.Right.Label(v)
				if l == graph.Wildcard {
					l = graph.Label(fmt.Sprintf("_ex%d", res.Created))
				}
				assign[v] = g.AddNode(l)
				res.Created++
			}
			for _, e := range f.t.Right.Edges() {
				g.AddEdge(assign[e.Src], e.Label, assign[e.Dst])
			}
		}
	}
	res.Rounds = maxRounds
	res.Complete = false
	return res, nil
}
