package reason

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
)

// evidenceIndex returns i when v.Literal is &v.GED.Y[i] — the literal
// inside the rule's own consequent, not a copy of it — and -1 otherwise.
func evidenceIndex(v Violation) int {
	for i := range v.GED.Y {
		if v.Literal == &v.GED.Y[i] {
			return i
		}
	}
	return -1
}

// evidenceKey identifies v's rule and match.
func evidenceKey(v Violation, sigma ged.Set) string {
	for i, d := range sigma {
		if d == v.GED {
			return string(appendViolationKey([]byte(fmt.Sprintf("g%d:", i)), v))
		}
	}
	return "unknown rule"
}

// sameEvidence reports how got differs from the reference want: both
// must hold the same violations, and every violation's Literal must be
// the very pointer the reference reports, &GED.Y[i] for the first
// failing i.
func sameEvidence(got, want []Violation, sigma ged.Set) error {
	ref := make(map[string]*ged.Literal, len(want))
	for _, w := range want {
		ref[evidenceKey(w, sigma)] = w.Literal
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d violations, reference %d", len(got), len(want))
	}
	for _, v := range got {
		k := evidenceKey(v, sigma)
		wl, ok := ref[k]
		switch {
		case !ok:
			return fmt.Errorf("%s is not a reference violation", k)
		case evidenceIndex(v) < 0:
			return fmt.Errorf("%s: literal %v does not point into its rule's consequent", k, v.Literal)
		case v.Literal != wl:
			return fmt.Errorf("%s: reports Y[%d] %v, reference Y[%d] %v",
				k, evidenceIndex(v), v.Literal, evidenceIndex(Violation{GED: v.GED, Literal: wl}), wl)
		}
	}
	return nil
}

// TestEvidenceIsRuleLiteral: full sequential, data-parallel and
// touched-neighborhood validation report each violation's failing
// literal as a pointer into the rule's consequent, the first failing
// one, exactly as the brute-force reference does.
func TestEvidenceIsRuleLiteral(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed % 1_000_000))
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		v := NewValidatorOn(g.Freeze(), sigma)
		ref := bruteForceViolations(g, sigma)
		var touched []graph.NodeID
		for i := 0; i < 3; i++ {
			touched = append(touched, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		seq, _ := v.RunCtx(ctx, 0)
		par, _ := v.RunParallelCtx(ctx, 0, 3)
		inc, _ := v.TouchingCtx(ctx, touched, 0)
		for _, c := range []struct {
			name      string
			got, want []Violation
		}{
			{"RunCtx", seq, ref},
			{"RunParallelCtx", par, ref},
			{"TouchingCtx", inc, touching(ref, touched)},
		} {
			if err := sameEvidence(c.got, c.want, sigma); err != nil {
				t.Logf("seed %d: %s: %v", seed, c.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreEvidenceFollowsFailingLiteral: a maintained store's entries
// keep pointing at the first failing consequent literal through a
// random delta stream, including the deltas that fix a match's recorded
// literal while breaking another of the same rule (the refresh path of
// Recheck), which the stream must exercise.
func TestStoreEvidenceFollowsFailingLiteral(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(523))
	refreshed := 0
	for trial := 0; trial < 40; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
		if err != nil {
			t.Fatal(err)
		}
		prev := map[string]*ged.Literal{}
		for step := 0; step < 10; step++ {
			from := st.Snapshot().SourceVersion()
			mutateReason(g, rng, 1+rng.Intn(4))
			d := g.DeltaSince(from)
			if err := st.Apply(ctx, st.Snapshot().Apply(d), d.TouchedNodes()); err != nil {
				t.Fatal(err)
			}
			got := st.AppendViolations(nil, 0)
			if err := sameEvidence(got, bruteForceViolations(g, sigma), sigma); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			next := make(map[string]*ged.Literal, len(got))
			for _, v := range got {
				k := evidenceKey(v, sigma)
				next[k] = v.Literal
				if l, ok := prev[k]; ok && l != v.Literal {
					refreshed++
				}
			}
			prev = next
		}
	}
	if refreshed == 0 {
		t.Fatal("no delta changed a stored violation's failing literal; the refresh path went untested")
	}
}
