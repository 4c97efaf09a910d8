package pattern_test

// Differential tests for the matcher against the brute-force reference
// (pattern.BruteForceMatches): matching over a frozen graph.Snapshot
// must return exactly the match sets that trying every assignment over
// the mutable graph finds, across generated workloads (testing/quick
// drives the seeds). An external test package is used so the workload
// generators of internal/gen can be imported without a cycle.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// canonMatches renders a match list canonically for set comparison.
var canonMatches = pattern.CanonMatches

func sameCanon(a, b []string) bool { return slices.Equal(a, b) }

var (
	diffLabels = []graph.Label{"a", "b", "c"}
	diffAttrs  = []graph.Attr{"p", "q"}
)

// workloadFor derives a deterministic random host graph and rule set
// from one seed: the rules' patterns, each with the constant literals
// of its antecedent as pushed-down filters.
func workloadFor(seed int64) (*graph.Graph, []*pattern.Pattern, [][]pattern.ConstFilter) {
	g := gen.RandomPropertyGraph(seed, 30, 2.5, diffLabels, diffAttrs, 3)
	sigma := gen.RandomGEDSet(seed+1, 6, 4, diffLabels, diffAttrs, 3)
	ps := make([]*pattern.Pattern, 0, len(sigma)+2)
	fs := make([][]pattern.ConstFilter, 0, len(sigma)+2)
	for _, d := range sigma {
		ps = append(ps, d.Pattern)
		var filters []pattern.ConstFilter
		for _, l := range d.X {
			if k, ok := l.Kind(); ok && k == ged.ConstLiteral {
				filters = append(filters, pattern.ConstFilter{Var: l.Left.Var, Attr: l.Left.Attr, Value: l.Right.Const})
			}
		}
		fs = append(fs, filters)
	}
	// A wildcard-heavy pattern and the empty pattern ride along: both
	// exercise matcher paths the GED generator rarely produces.
	wild := pattern.New()
	wild.AddVar("x", graph.Wildcard)
	wild.AddEdge("x", graph.Wildcard, "y")
	ps = append(ps, wild, pattern.New())
	fs = append(fs, nil, nil)
	return g, ps, fs
}

// TestSnapshotMatchingDifferential: for quick-generated seeds, every
// pattern finds exactly the brute-force reference's match set, with and
// without its pushed-down filters.
func TestSnapshotMatchingDifferential(t *testing.T) {
	f := func(seed int64) bool {
		g, ps, fs := workloadFor(seed % 1_000_000)
		snap := g.Freeze()
		for i, p := range ps {
			want := pattern.BruteForceMatches(p, g, nil)
			got := canonMatches(p, pattern.FindMatches(p, snap, 0))
			if !sameCanon(got, want) {
				t.Logf("seed %d: pattern %s: %d matches, reference %d",
					seed, p, len(got), len(want))
				return false
			}
			if pattern.HasMatch(p, snap) != (len(want) > 0) {
				return false
			}
			if pattern.CountMatches(p, snap) != len(want) {
				return false
			}
			var filtered []pattern.Match
			pattern.CompileFiltered(p, snap, fs[i]).ForEachBound(nil, func(m pattern.Match) bool {
				filtered = append(filtered, m.Clone())
				return true
			})
			if want := pattern.BruteForceMatches(p, g, fs[i]); !sameCanon(canonMatches(p, filtered), want) {
				t.Logf("seed %d: pattern %s filters %v: %d matches, reference %d",
					seed, p, fs[i], len(filtered), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPivotDifferential: the pivot-block primitive enumerates
// exactly the reference matches whose pivot binding lies in the block,
// for the whole candidate set and for its first half.
func TestSnapshotPivotDifferential(t *testing.T) {
	f := func(seed int64) bool {
		g, ps, _ := workloadFor(seed % 1_000_000)
		snap := g.Freeze()
		for _, p := range ps {
			if p.NumVars() == 0 {
				continue
			}
			pivot := p.Vars()[0]
			cands := g.CandidateNodes(p.Label(pivot))
			all := pattern.BruteForceMatches(p, g, nil)
			for _, block := range [][]graph.NodeID{cands, cands[:len(cands)/2]} {
				var got []pattern.Match
				pattern.Compile(p, snap).ForEachPivot(pivot, block, func(m pattern.Match) bool {
					got = append(got, m.Clone())
					return true
				})
				// The pivot is the first variable, so its binding leads
				// every canonical string: "<pivot>=<id>;".
				inBlock := make(map[string]bool, len(block))
				for _, n := range block {
					inBlock[fmt.Sprintf("%s=%d;", pivot, n)] = true
				}
				var want []string
				for _, s := range all {
					if inBlock[s[:strings.Index(s, ";")+1]] {
						want = append(want, s)
					}
				}
				if !sameCanon(canonMatches(p, got), want) {
					t.Logf("seed %d: pattern %s: pivot block of %d: %d matches, reference %d",
						seed, p, len(block), len(got), len(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPatternYieldContract: the empty pattern delivers its single
// empty match through the regular search, so the "return false to stop"
// contract holds and pre-bindings (which necessarily name unknown
// variables) yield nothing.
func TestEmptyPatternYieldContract(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	pl := pattern.Compile(pattern.New(), g.Freeze())
	calls := 0
	pl.ForEachBound(nil, func(m pattern.Match) bool {
		calls++
		if len(m) != 0 {
			t.Errorf("empty pattern yielded non-empty match %v", m)
		}
		return false // must be honored: no further yields
	})
	if calls != 1 {
		t.Errorf("empty pattern yielded %d times, want 1", calls)
	}
	// A pre-binding on the empty pattern names an unknown variable
	// and must match nothing.
	pl.ForEachBound(pattern.Match{"zzz": 0}, func(pattern.Match) bool {
		t.Error("pre-bound unknown variable yielded a match on the empty pattern")
		return true
	})
}

// BenchmarkMatcherPath measures a 3-variable path pattern on a
// mid-size random graph — the matcher's inner loop in isolation.
func BenchmarkMatcherPath(b *testing.B) {
	g := gen.RandomPropertyGraph(5, 2000, 4, diffLabels, diffAttrs, 4)
	p := pattern.New()
	p.AddVar("x", "a").AddVar("y", "b").AddVar("z", "c")
	p.AddEdge("x", "e", "y").AddEdge("y", "e", "z")
	snap := g.Freeze()
	for i := 0; i < b.N; i++ {
		pattern.CountMatches(p, snap)
	}
}
