package gedlib_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"gedlib"
	"gedlib/workload"
)

// holdsOn evaluates literal l of match m straight from the graph's
// stored attributes, with the paper's existence semantics: the
// reference the engine's evidence is checked against.
func holdsOn(g *gedlib.Graph, l gedlib.Literal, m gedlib.Match) bool {
	k, _ := l.Kind()
	switch k {
	case gedlib.ConstLiteral:
		v, ok := g.Attr(m[l.Left.Var], l.Left.Attr)
		return ok && v.Equal(l.Right.Const)
	case gedlib.VarLiteral:
		v1, ok1 := g.Attr(m[l.Left.Var], l.Left.Attr)
		v2, ok2 := g.Attr(m[l.Right.Var], l.Right.Attr)
		return ok1 && ok2 && v1.Equal(v2)
	default:
		return m[l.Left.Var] == m[l.Right.Var]
	}
}

// checkEvidence fails unless every violation's Literal is &GED.Y[i] for
// the first consequent literal i the match fails on g, its antecedent
// holding.
func checkEvidence(t *testing.T, what string, g *gedlib.Graph, vs []gedlib.Violation) {
	t.Helper()
	for _, v := range vs {
		for _, l := range v.GED.X {
			if !holdsOn(g, l, v.Match) {
				t.Fatalf("%s: %s %v: antecedent literal %s fails", what, v.GED.Name, v.Match, l)
			}
		}
		first := -1
		for i := range v.GED.Y {
			if !holdsOn(g, v.GED.Y[i], v.Match) {
				first = i
				break
			}
		}
		if first < 0 || v.Literal != &v.GED.Y[first] {
			t.Fatalf("%s: %s %v: reports %v, not &Y[%d] of its own rule", what, v.GED.Name, v.Match, v.Literal, first)
		}
	}
}

// TestEngineApplyEvidenceIsRuleLiteral: through a random update stream,
// Engine.Apply — monolithic and over two shards — reports the violation
// set a fresh Validate does, and every violation's Literal points at
// the first failing literal inside the rule's own consequent.
func TestEngineApplyEvidenceIsRuleLiteral(t *testing.T) {
	ctx := context.Background()
	labels := []gedlib.Label{"person", "product"}
	attrs := []gedlib.Attr{"a", "b"}
	for _, shards := range []int{1, 2} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := workload.RandomPropertyGraph(seed, 40, 2.0, labels, attrs, 2)
			sigma := workload.RandomGEDSet(seed+1, 4, 2, labels, attrs, 2)
			eng := gedlib.New(gedlib.WithShards(shards))
			for step := 0; step < 6; step++ {
				what := fmt.Sprintf("shards %d seed %d step %d", shards, seed, step)
				got, err := eng.Apply(ctx, g, sigma)
				if err != nil {
					t.Fatal(err)
				}
				want, err := gedlib.New().Validate(ctx, g, sigma)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := canon(got), canon(want); fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("%s: Apply reports %d violations, Validate %d", what, len(a), len(b))
				}
				checkEvidence(t, what, g, got)
				for k := 0; k < 3; k++ {
					n := gedlib.NodeID(rng.Intn(g.NumNodes()))
					if rng.Intn(2) == 0 {
						g.SetAttr(n, attrs[rng.Intn(2)], gedlib.Int(rng.Intn(2)))
					} else {
						g.AddEdge(n, "e", gedlib.NodeID(rng.Intn(g.NumNodes())))
					}
				}
			}
		}
	}
}

// TestViolationFootprint pins what one maintained violation costs. A
// Violation is three words, its Match and Literal shared rather than
// copied, so the per-Apply result copy of a large violation set stays
// small: over a store of 12000 violations, a one-edge Apply allocates
// less than 64 bytes per stored violation (a violation holding its
// literal by value is 168 bytes, and copying those alone exceeds it).
func TestViolationFootprint(t *testing.T) {
	if got := unsafe.Sizeof(gedlib.Violation{}); got != 24 {
		t.Fatalf("sizeof(Violation) = %d, want 24", got)
	}
	const n = 12000
	g := gedlib.NewGraph()
	for i := 0; i < n; i++ {
		g.AddNodeAttrs("person", map[gedlib.Attr]gedlib.Value{"ok": gedlib.Int(0)})
	}
	q := gedlib.NewPattern().AddVar("x", "person")
	sigma := gedlib.RuleSet{gedlib.NewRule("ok", q, nil,
		[]gedlib.Literal{gedlib.ConstLit("x", "ok", gedlib.Int(1))})}
	ctx := context.Background()
	eng := gedlib.New()
	vs, err := eng.Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != n {
		t.Fatalf("seeded %d violations, want %d", len(vs), n)
	}
	const applies = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < applies; i++ {
		g.AddEdge(gedlib.NodeID(i), "knows", gedlib.NodeID(i+1))
		if vs, err = eng.Apply(ctx, g, sigma); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if len(vs) != n {
		t.Fatalf("%d violations after the edges, want %d", len(vs), n)
	}
	perApply := (after.TotalAlloc - before.TotalAlloc) / applies
	t.Logf("%d bytes per one-edge Apply over %d violations (%.1f per violation)", perApply, n, float64(perApply)/n)
	if perApply >= 64*n {
		t.Fatalf("a one-edge Apply allocates %d bytes over %d violations; want < %d", perApply, n, 64*n)
	}
}
