package reason

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/graph"
	"gedlib/internal/pattern"
)

// canonViolations renders a violation list canonically for comparison.
func canonViolations(vs []Violation, sigma ged.Set) []string {
	idx := make(map[*ged.GED]int)
	for i, d := range sigma {
		idx[d] = i
	}
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		s := fmt.Sprintf("g%d:", idx[v.GED])
		vars := v.GED.Pattern.Vars()
		for _, x := range vars {
			s += fmt.Sprintf("%s=%d;", x, v.Match[x])
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSequential: the parallel validator finds exactly
// the violations the sequential one does, for every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		want := canonViolations(validate(g, sigma, 0), sigma)
		for _, workers := range []int{1, 2, 4, 8} {
			got := canonViolations(validateParallel(g, sigma, 0, workers), sigma)
			if len(got) != len(want) {
				t.Fatalf("trial %d workers %d: %d violations vs %d sequential",
					trial, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d workers %d: violation sets differ", trial, workers)
				}
			}
		}
	}
}

// TestParallelDeterministicOrder: repeated parallel runs return
// violations in the same order.
func TestParallelDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sigma := randomSigma(rng)
	g := randomGraph(rng)
	first := validateParallel(g, sigma, 0, 4)
	for i := 0; i < 5; i++ {
		again := validateParallel(g, sigma, 0, 4)
		if len(again) != len(first) {
			t.Fatal("violation count changed between runs")
		}
		for j := range again {
			if again[j].GED != first[j].GED || fmt.Sprint(again[j].Match) != fmt.Sprint(first[j].Match) {
				t.Fatal("violation order changed between runs")
			}
		}
	}
}

func TestParallelLimit(t *testing.T) {
	q := pattern.New()
	q.AddVar("x", "p")
	phi := ged.New("f", q, nil, []ged.Literal{ged.ConstLit("x", "k", graph.Int(1))})
	g := randomGraph(rand.New(rand.NewSource(1)))
	for i := 0; i < 30; i++ {
		g.AddNode("p")
	}
	vs := validateParallel(g, ged.Set{phi}, 5, 4)
	if len(vs) != 5 {
		t.Errorf("limit 5: got %d", len(vs))
	}
}

func TestParallelEmptyPattern(t *testing.T) {
	phi := ged.New("e", pattern.New(), nil, nil)
	g := randomGraph(rand.New(rand.NewSource(2)))
	if n := len(validateParallel(g, ged.Set{phi}, 0, 4)); n != 0 {
		t.Errorf("empty consequent can never be violated, got %d", n)
	}
}

// TestForEachMatchBound covers the pre-binding primitive directly.
func TestForEachMatchBound(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)))
	q := pattern.New()
	q.AddVar("x", "a").AddVar("y", "b")
	snap := g.Freeze()
	total := pattern.CountMatches(q, snap)
	sum := 0
	for _, c := range g.CandidateNodes("a") {
		pattern.ForEachMatchBound(q, snap, pattern.Match{"x": c}, func(pattern.Match) bool {
			sum++
			return true
		})
	}
	if sum != total {
		t.Errorf("partitioned count %d != total %d", sum, total)
	}
	// A label-violating pre-binding yields nothing.
	for _, c := range g.CandidateNodes("b") {
		found := false
		pattern.ForEachMatchBound(q, snap, pattern.Match{"x": c}, func(pattern.Match) bool {
			found = true
			return false
		})
		if found && g.Label(c) != "a" {
			t.Error("label-violating pre-binding produced a match")
		}
	}
	// An unknown variable yields nothing.
	count := 0
	pattern.ForEachMatchBound(q, snap, pattern.Match{"zzz": 0}, func(pattern.Match) bool {
		count++
		return true
	})
	if count != 0 {
		t.Error("unknown pre-bound variable must yield no matches")
	}
}
