package reason

import (
	"context"
	"sync"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// Validator is a prepared validation context for repeated checking of
// one graph against one rule set: the graph is frozen once into a
// read-only snapshot (interned symbols, label-grouped adjacency, and
// the attribute-value index folded in), pattern matching plans are
// compiled once against it, and constant literals of each antecedent
// are pushed down into the index — the match enumeration for a rule
// like φ₁ (y.type = "video game" → ...) starts from the indexed
// video-game nodes instead of scanning every product.
//
// The Validator reflects the snapshot it was built on; when the graph
// moves, Rebase follows a delta-maintained snapshot at the cost of the
// rule set, not the graph. It is immutable (the pushed-down pivots are
// materialized lazily under a sync.Once) and safe for concurrent use.
type Validator struct {
	snap  *graph.Snapshot
	sigma ged.Set
	plans []*pattern.Plan
	// lits[i] is Σ[i]'s X and Y lowered onto its plan's binding vector
	// and resolved against snap, so enumeration evaluates the literals
	// without building a Match map for matches that violate nothing.
	lits []*Lits
	// pivots[i] is the pushed-down access path for Σ[i], if any; built
	// on the first RunParallelCtx so that other validators never pay for
	// the value postings.
	pivotOnce sync.Once
	pivots    []*pivotPlan
}

// pivotPlan records the most selective constant-literal access path.
type pivotPlan struct {
	variable pattern.Var
	cands    []graph.NodeID
}

// NewValidator prepares g for repeated validation against sigma.
func NewValidator(g *graph.Graph, sigma ged.Set) *Validator {
	return NewValidatorOn(g.Freeze(), sigma)
}

// NewValidatorOn prepares a validation context over an existing
// snapshot, sharing it instead of re-freezing. Plans are compiled with
// every constant literal of the antecedent pushed down (see
// PushdownFilters): violating-match enumeration skips literal-failing
// bindings inside the search, and the post-match antecedent check only
// ever sees matches that already satisfy the pushable literals.
func NewValidatorOn(snap *graph.Snapshot, sigma ged.Set) *Validator {
	v := &Validator{
		snap:  snap,
		sigma: sigma,
		plans: make([]*pattern.Plan, len(sigma)),
		lits:  make([]*Lits, len(sigma)),
	}
	for i, d := range sigma {
		v.plans[i] = pattern.CompileFiltered(d.Pattern, snap, PushdownFilters(d))
		v.lits[i] = LowerLits(d, snap)
	}
	return v
}

// PushdownFilters extracts the pushable antecedent literals of d: the
// constant literals x.A = c, which the matcher turns into posting-list
// intersections. Variable and id literals relate two bindings and stay
// post-match checks; so does every consequent literal (a violation is
// a match that *fails* one).
func PushdownFilters(d *ged.GED) []pattern.ConstFilter {
	var fs []pattern.ConstFilter
	for _, l := range d.X {
		k, ok := l.Kind()
		if !ok || k != ged.ConstLiteral {
			continue
		}
		fs = append(fs, pattern.ConstFilter{Var: l.Left.Var, Attr: l.Left.Attr, Value: l.Right.Const})
	}
	return fs
}

// Rebase returns a validator over snap, reusing the receiver's compiled
// plans when snap shares the receiver's snapshot lineage (it was
// produced by graph.Snapshot.Apply) — the per-delta cost is then
// proportional to the rule set. An unrelated snapshot falls back to a
// full recompile.
func (v *Validator) Rebase(snap *graph.Snapshot) *Validator {
	if snap == v.snap {
		return v
	}
	if snap.Lineage() != v.snap.Lineage() {
		return NewValidatorOn(snap, v.sigma)
	}
	nv := &Validator{
		snap:  snap,
		sigma: v.sigma,
		plans: make([]*pattern.Plan, len(v.plans)),
		lits:  make([]*Lits, len(v.lits)),
	}
	for i, pl := range v.plans {
		nv.plans[i] = pl.Rebind(snap)
		nv.lits[i] = v.lits[i].Resolve(snap)
	}
	return nv
}

// Snapshot returns the snapshot the validator is bound to.
func (v *Validator) Snapshot() *graph.Snapshot { return v.snap }

// ensurePivots materializes the constant-literal access paths; first
// use triggers the snapshot's lazy value postings.
func (v *Validator) ensurePivots() {
	v.pivotOnce.Do(func() {
		pv := make([]*pivotPlan, len(v.sigma))
		for i, d := range v.sigma {
			pv[i] = choosePivot(d, v.snap)
		}
		v.pivots = pv
	})
}

// choosePivot selects the most selective constant literal of d's
// antecedent whose index postings beat the label-based candidate set.
func choosePivot(d *ged.GED, snap *graph.Snapshot) *pivotPlan {
	var best *pivotPlan
	bestN := -1
	for _, l := range d.X {
		k, ok := l.Kind()
		if !ok || k != ged.ConstLiteral {
			continue
		}
		n := snap.Selectivity(l.Left.Attr, l.Right.Const)
		if bestN < 0 || n < bestN {
			bestN = n
			best = &pivotPlan{
				variable: l.Left.Var,
				cands:    snap.Lookup(l.Left.Attr, l.Right.Const),
			}
		}
	}
	if best == nil {
		return nil
	}
	// Only worth it when more selective than the label index.
	if bestN >= snap.LabelCount(d.Pattern.Label(best.variable)) {
		return nil
	}
	return best
}

// RunCtx finds the violations of Σ in the validator's snapshot, up to
// limit (≤ 0 means all); the snapshot satisfies Σ iff the result is
// empty (Section 5.3). It enumerates sequentially through the prepared
// plans, in enumeration order, evaluating each rule's lowered literals
// on the matcher's binding vector; a Match map is built only for a
// violation. ctx is checked between candidate matches and, via the
// matcher's abort hook, inside the backtracking search itself — so a
// cancelled context aborts even a match-free exponential exploration.
// The violations found so far are returned alongside ctx's error.
func (v *Validator) RunCtx(ctx context.Context, limit int) ([]Violation, error) {
	var out []Violation
	stop := func() bool { return ctx.Err() != nil }
	for i, d := range v.sigma {
		ls := v.lits[i]
		v.plans[i].ForEachDenseCancel(stop, func(bind []graph.NodeID) bool {
			if ctx.Err() != nil {
				return false
			}
			if fail := ls.Violated(v.snap, bind); fail >= 0 {
				out = append(out, ViolationOf(d, bind, fail))
			}
			return limit <= 0 || len(out) < limit
		})
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// Satisfies reports G ⊨ Σ through the prepared context.
func (v *Validator) Satisfies() bool {
	vs, _ := v.RunCtx(context.Background(), 1)
	return len(vs) == 0
}
