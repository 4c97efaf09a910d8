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
	"gedlib/internal/obs"
	"gedlib/internal/pattern"
)

// canonMatches renders a match list canonically for set comparison.
var canonMatches = pattern.CanonMatches

func sameCanon(a, b []string) bool { return slices.Equal(a, b) }

// pivotMatches collects the matches ForEachPivotCancel yields for one
// pivot block, turning each dense binding vector back into a Match.
func pivotMatches(pl *pattern.Plan, p *pattern.Pattern, pivot pattern.Var, block []graph.NodeID) []pattern.Match {
	var out []pattern.Match
	pl.ForEachPivotCancel(pivot, block, nil, func(bind []graph.NodeID) bool {
		m := make(pattern.Match, len(bind))
		for i, x := range p.Vars() {
			m[x] = bind[i]
		}
		out = append(out, m)
		return true
	})
	return out
}

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
				got := pivotMatches(pattern.Compile(p, snap), p, pivot, block)
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

// rerootCase is one pattern of the re-rooting differential, with the
// pushed-down filters it is compiled with (nil for none).
type rerootCase struct {
	name    string
	p       *pattern.Pattern
	filters []pattern.ConstFilter
}

// rerootCases are shapes whose compile-time order, with some pivot
// removed, starts at a variable that has no edge to the pivot: the
// path pivoting on its far end, a tree pivoting on a leaf, the diamond
// pivoting on its sink, and a path with a pushed-down x.p = c filter on
// a non-pivot variable.
func rerootCases() []rerootCase {
	path := pattern.New()
	path.AddVar("x", "a").AddVar("y", "b").AddVar("z", "c")
	path.AddEdge("x", "e", "y").AddEdge("y", "e", "z")

	tree := pattern.New()
	tree.AddVar("r", "a").AddVar("s", "b").AddVar("t", "c").AddVar("u", "a")
	tree.AddEdge("r", "e", "s").AddEdge("r", "e", "t").AddEdge("s", "e", "u")

	diamond := pattern.New()
	diamond.AddVar("x", "a").AddVar("y", "b").AddVar("z", "b").AddVar("w", "c")
	diamond.AddEdge("x", "e", "y").AddEdge("x", "e", "z")
	diamond.AddEdge("y", "e", "w").AddEdge("z", "e", "w")

	filtered := path.Clone()
	return []rerootCase{
		{"path", path, nil},
		{"tree", tree, nil},
		{"diamond", diamond, nil},
		{"filtered", filtered, []pattern.ConstFilter{{Var: "x", Attr: "p", Value: graph.Int(1)}}},
	}
}

// bindingsOf parses a canonical match string ("x=1;y=2;") into its
// variable bindings.
func bindingsOf(s string) map[pattern.Var]string {
	out := map[pattern.Var]string{}
	for _, kv := range strings.Split(strings.TrimSuffix(s, ";"), ";") {
		k, v, _ := strings.Cut(kv, "=")
		out[pattern.Var(k)] = v
	}
	return out
}

// startsAwayFrom reports whether the plan's order with pivot removed
// begins at a variable that has no pattern edge to pivot — the case the
// pivot's re-rooted order exists for.
func startsAwayFrom(p *pattern.Pattern, order []pattern.Var, pivot pattern.Var) bool {
	for _, x := range order {
		if x == pivot {
			continue
		}
		for _, e := range p.Edges() {
			if (e.Src == x && e.Dst == pivot) || (e.Dst == x && e.Src == pivot) {
				return false
			}
		}
		return true
	}
	return false
}

// TestPivotRerootDifferential: with every variable as the pivot, the
// pivot-block primitive enumerates exactly the reference matches whose
// pivot binding lies in the block, on patterns whose compile order minus
// the pivot starts away from it.
func TestPivotRerootDifferential(t *testing.T) {
	away := map[string]bool{}
	matches := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		g := gen.RandomPropertyGraph(seed, 30, 2.5, diffLabels, diffAttrs, 3)
		snap := g.Freeze()
		for _, c := range rerootCases() {
			pl := pattern.CompileFiltered(c.p, snap, c.filters)
			all := pattern.BruteForceMatches(c.p, g, c.filters)
			matches[c.name] += len(all)
			for _, pivot := range c.p.Vars() {
				if startsAwayFrom(c.p, pl.OrderedVars(), pivot) {
					away[c.name] = true
				}
				cands := g.CandidateNodes(c.p.Label(pivot))
				for _, block := range [][]graph.NodeID{g.Nodes(), cands[:len(cands)/2]} {
					inBlock := make(map[string]bool, len(block))
					for _, n := range block {
						inBlock[fmt.Sprint(n)] = true
					}
					var want []string
					for _, s := range all {
						if inBlock[bindingsOf(s)[pivot]] {
							want = append(want, s)
						}
					}
					got := pivotMatches(pl, c.p, pivot, block)
					if gotC := canonMatches(c.p, got); !sameCanon(gotC, want) {
						t.Fatalf("seed %d: %s pivoting on %s, block of %d: %d matches, reference %d",
							seed, c.name, pivot, len(block), len(gotC), len(want))
					}
				}
			}
		}
	}
	for _, c := range rerootCases() {
		if !away[c.name] {
			t.Errorf("%s: no seed compiled an order that starts away from a pivot", c.name)
		}
		if matches[c.name] == 0 {
			t.Errorf("%s: no seed's graph has a match", c.name)
		}
	}
}

// TestBoundRerootDifferential: ForEachBound with two pre-bound variables
// (the shape of a TGD head check) finds exactly the reference matches
// that agree with both bindings, for every pair of variables, over
// pre-bindings taken from real matches and from arbitrary node pairs.
func TestBoundRerootDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.RandomPropertyGraph(seed, 30, 2.5, diffLabels, diffAttrs, 3)
		snap := g.Freeze()
		for _, c := range rerootCases() {
			pl := pattern.CompileFiltered(c.p, snap, c.filters)
			all := pattern.BruteForceMatches(c.p, g, c.filters)
			vars := c.p.Vars()
			for i, u := range vars {
				for _, v := range vars[i+1:] {
					var pres []pattern.Match
					for k, s := range all {
						if k == 8 {
							break
						}
						b := bindingsOf(s)
						var nu, nv int
						fmt.Sscan(b[u], &nu)
						fmt.Sscan(b[v], &nv)
						pres = append(pres, pattern.Match{u: graph.NodeID(nu), v: graph.NodeID(nv)})
					}
					for k := 0; k < 4; k++ {
						pres = append(pres, pattern.Match{u: graph.NodeID(3 * k), v: graph.NodeID(7*k + 1)})
					}
					for _, pre := range pres {
						var want []string
						for _, s := range all {
							b := bindingsOf(s)
							if b[u] == fmt.Sprint(pre[u]) && b[v] == fmt.Sprint(pre[v]) {
								want = append(want, s)
							}
						}
						var got []pattern.Match
						pl.ForEachBound(pre, func(m pattern.Match) bool {
							got = append(got, m.Clone())
							return true
						})
						if gotC := canonMatches(c.p, got); !sameCanon(gotC, want) {
							t.Fatalf("seed %d: %s pre-bound %v: %d matches, reference %d",
								seed, c.name, pre, len(gotC), len(want))
						}
					}
				}
			}
		}
	}
}

// TestPivotCandidatesTrackBlock pins the cost of a pivoted search that
// cannot match: a tree pattern over an edge label the snapshot lacks,
// pivoting on a leaf the compile-time order visits last. Binding the
// leaf's neighbour next fails at once on the absent label, so the
// search examines only the k pivot candidates. Binding the order's
// first variable next, as the order with the pivot merely removed
// would, scans its whole label posting under each pivot candidate:
// k × |posting| more.
func TestPivotCandidatesTrackBlock(t *testing.T) {
	g := graph.New()
	const n = 200
	for i := 0; i < n; i++ {
		g.AddNode("p")
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), "knows", graph.NodeID((i*7+3)%n))
	}
	p := pattern.New()
	p.AddVar("a", "p").AddVar("b", "p").AddVar("c", "p").AddVar("d", "p")
	p.AddEdge("a", "e", "b").AddEdge("a", "e", "c").AddEdge("b", "e", "d")
	pl := pattern.Compile(p, g.Freeze())
	if order := pl.OrderedVars(); !startsAwayFrom(p, order, "d") {
		t.Fatalf("compile order %v starts next to the pivot; the test needs it not to", order)
	}
	cands := obs.NewRegistry().Counter("candidates", "")
	pl.SetProfile(&obs.MatchStats{Candidates: cands})
	const k = 50
	pl.ForEachPivotCancel("d", g.Nodes()[:k], nil, func([]graph.NodeID) bool {
		t.Error("a pattern over an absent edge label matched")
		return false
	})
	if got := cands.Value(); got > k {
		t.Errorf("pivoted search over %d candidates examined %d", k, got)
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
