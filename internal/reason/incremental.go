package reason

import (
	"context"
	"strconv"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
)

// TouchingCtx finds the violations of Σ whose match involves at least
// one of the given nodes. After a localized update (attribute writes or
// edge insertions around a handful of nodes), the *new* violations all
// touch an updated node, so re-checking only those matches — rather
// than re-enumerating every match of every pattern — gives incremental
// validation over a validator rebased onto the post-update snapshot:
//
//	newViolations, err := v.Rebase(snap.Apply(delta)).TouchingCtx(ctx, delta.TouchedNodes(), 0)
//
// Deletions are different: removing an edge or attribute can only
// *remove* violations (matches and antecedent satisfactions are
// monotone in the graph), so the stale entries of a maintained violation
// list are re-checked with StillViolating instead. ViolationStore
// packages both halves into one maintained set, and Engine.Apply drives
// it from the graph's own change journal.
//
// Matches touching several affected nodes are reported once. The result
// order is canonical, as in RunParallelCtx. ctx is checked between
// candidate matches; the violations found before an abort are returned
// alongside ctx's error.
func (v *Validator) TouchingCtx(ctx context.Context, nodes []graph.NodeID, limit int) ([]Violation, error) {
	if len(nodes) == 0 {
		// The empty delta touches nothing: no per-GED sort/dedup
		// bookkeeping.
		return nil, ctx.Err()
	}
	var out []Violation
	var ctxErr error
	stop := func() bool { return ctx.Err() != nil }
	var seen seenSet
	for gi, d := range v.sigma {
		pl, ls := v.plans[gi], v.lits[gi]
		for _, pivot := range d.Pattern.Vars() {
			pl.ForEachPivotCancel(pivot, nodes, stop, func(bind []graph.NodeID) bool {
				if ctxErr = ctx.Err(); ctxErr != nil {
					return false
				}
				// Dedup: a match with several affected bindings is found
				// once per (pivot, binding); canonicalize.
				if !seen.add(gi, bind) {
					return true
				}
				if fail := ls.Violated(v.snap, bind); fail >= 0 {
					out = append(out, ViolationOf(d, bind, fail))
				}
				return true
			})
			ctxErr = ctx.Err()
			if ctxErr != nil {
				break
			}
		}
		if ctxErr != nil {
			break
		}
	}
	// Partial results keep the contract: canonical order, limit applied.
	sortViolations(out, v.sigma)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, ctxErr
}

// StillViolating re-checks a previously-found violation against the
// current state of a snapshot: the match must still exist (labels and
// edges), the antecedent must still hold, and some consequent literal
// must still fail.
func StillViolating(snap *graph.Snapshot, v Violation) bool {
	_, ok := FailingLiteral(snap, v)
	return ok
}

// FailingLiteral is StillViolating exposing the evidence: the first
// consequent literal that currently fails, as a pointer into v.GED.Y.
// It may differ from the recorded v.Literal — an update can fix the
// recorded literal while breaking another — which is why maintained
// stores must refresh their entries from it rather than keep the stale
// one.
func FailingLiteral(snap *graph.Snapshot, v Violation) (*ged.Literal, bool) {
	// Nodes must still exist.
	for _, x := range v.GED.Pattern.Vars() {
		n, ok := v.Match[x]
		if !ok || int(n) >= snap.NumNodes() {
			return nil, false
		}
		if !graph.LabelMatches(v.GED.Pattern.Label(x), snap.Label(n)) {
			return nil, false
		}
	}
	// Edges must still exist under ⪯: the exact edge for a concrete
	// pattern label (a wildcard-labeled host edge is not matched by a
	// concrete label), any edge for the wildcard.
	for _, e := range v.GED.Pattern.Edges() {
		src, dst := v.Match[e.Src], v.Match[e.Dst]
		if e.Label == graph.Wildcard {
			if !snap.HasAnyEdge(src, dst) {
				return nil, false
			}
		} else if !snap.HasEdge(src, e.Label, dst) {
			return nil, false
		}
	}
	for _, l := range v.GED.X {
		if !HoldsInGraph(snap, l, v.Match) {
			return nil, false
		}
	}
	for i := range v.GED.Y {
		if !HoldsInGraph(snap, v.GED.Y[i], v.Match) {
			return &v.GED.Y[i], true
		}
	}
	return nil, false
}

// denseKeyVars is how many bindings the allocation-free match key holds
// inline; patterns are small (the paper's examples top out at four
// variables, doubled keys at eight), so the string spill path is all
// but dead code.
const denseKeyVars = 8

// denseKey identifies one (GED, match) pair without allocating: the
// dense binding vector in variable order, inlined into a comparable
// array. It replaces the fmt.Sprintf string key that used to dominate
// the touched-neighborhood profile.
type denseKey struct {
	gi  int32
	n   int32
	ids [denseKeyVars]graph.NodeID
}

// seenSet is a set of (GED, match) keys: dense for patterns that fit
// the inline array, a string map as the spill path for wider ones. The
// zero value is ready to use.
type seenSet struct {
	dense map[denseKey]bool
	wide  map[string]bool
}

func makeKey(gi int, bind []graph.NodeID) (denseKey, bool) {
	if len(bind) > denseKeyVars {
		return denseKey{}, false
	}
	k := denseKey{gi: int32(gi), n: int32(len(bind))}
	copy(k.ids[:], bind)
	return k, true
}

func wideKey(gi int, bind []graph.NodeID) string {
	buf := make([]byte, 0, 16+8*len(bind))
	buf = strconv.AppendInt(buf, int64(gi), 10)
	for _, n := range bind {
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	return string(buf)
}

// add inserts the key of (gi, bind) — bind a complete binding vector in
// variable order — and reports whether it was absent.
func (s *seenSet) add(gi int, bind []graph.NodeID) bool {
	if k, ok := makeKey(gi, bind); ok {
		if s.dense == nil {
			s.dense = make(map[denseKey]bool)
		}
		if s.dense[k] {
			return false
		}
		s.dense[k] = true
		return true
	}
	k := wideKey(gi, bind)
	if s.wide == nil {
		s.wide = make(map[string]bool)
	}
	if s.wide[k] {
		return false
	}
	s.wide[k] = true
	return true
}

// remove deletes the key of (gi, bind).
func (s *seenSet) remove(gi int, bind []graph.NodeID) {
	if k, ok := makeKey(gi, bind); ok {
		delete(s.dense, k)
		return
	}
	delete(s.wide, wideKey(gi, bind))
}
