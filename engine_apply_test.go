package gedlib_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gedlib"
	"gedlib/workload"
)

func canon(vs []gedlib.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		vars := v.GED.Pattern.Vars()
		s := v.GED.Name
		for _, x := range vars {
			s += fmt.Sprintf(":%s=%d", x, v.Match[x])
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestEngineApplyMatchesValidate: Engine.Apply's maintained violation
// set equals a from-scratch Validate after every delta of a random
// update stream.
func TestEngineApplyMatchesValidate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	g, _ := workload.KnowledgeBase(31, 30, 0.1)
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	eng := gedlib.New()
	check := gedlib.New() // separate engine so Apply's cache is not shared

	for step := 0; step < 20; step++ {
		got, err := eng.Apply(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		want, err := check.Validate(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		a, b := canon(got), canon(want)
		if len(a) != len(b) {
			t.Fatalf("step %d: Apply reports %d violations, Validate %d", step, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: violation sets differ at %d: %s vs %s", step, i, a[i], b[i])
			}
		}
		// Mutate a handful of nodes for the next round.
		for k := 0; k < 1+rng.Intn(3); k++ {
			id := gedlib.NodeID(rng.Intn(g.NumNodes()))
			switch rng.Intn(3) {
			case 0:
				g.SetAttr(id, "type", gedlib.String("psychologist"))
			case 1:
				g.SetAttr(id, "type", gedlib.String("programmer"))
			default:
				g.AddEdge(id, "create", gedlib.NodeID(rng.Intn(g.NumNodes())))
			}
		}
	}
}

// TestEngineApplyLimit: the violation limit truncates Apply's report
// without corrupting the maintained set.
func TestEngineApplyLimit(t *testing.T) {
	ctx := context.Background()
	g, stats := workload.KnowledgeBase(33, 40, 0.4)
	if stats.Total() == 0 {
		t.Skip("no planted violations")
	}
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	full, err := gedlib.New().Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Skip("need at least two violations")
	}
	lim, err := gedlib.New(gedlib.WithViolationLimit(1)).Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim) != 1 {
		t.Fatalf("limit 1 reported %d violations", len(lim))
	}
}

// TestEngineApplyAfterValidate: interleaving Apply with the other
// graph-bound methods keeps every answer fresh.
func TestEngineApplyAfterValidate(t *testing.T) {
	ctx := context.Background()
	eng := gedlib.New()
	g := gedlib.NewGraph()
	game := g.AddNode("product")
	g.SetAttr(game, "type", gedlib.String("video game"))
	dev := g.AddNode("person")
	g.SetAttr(dev, "type", gedlib.String("artist"))
	g.AddEdge(dev, "create", game)
	sigma := gedlib.RuleSet{workload.PaperPhi1()}

	if vs, _ := eng.Validate(ctx, g, sigma); len(vs) != 1 {
		t.Fatalf("Validate: want 1 violation, got %d", len(vs))
	}
	if vs, _ := eng.Apply(ctx, g, sigma); len(vs) != 1 {
		t.Fatalf("Apply: want 1 violation, got %d", len(vs))
	}
	// Repair; both views must converge to clean.
	g.SetAttr(dev, "type", gedlib.String("programmer"))
	if vs, _ := eng.Apply(ctx, g, sigma); len(vs) != 0 {
		t.Fatalf("Apply after repair: want 0, got %d", len(vs))
	}
	if vs, _ := eng.Validate(ctx, g, sigma); len(vs) != 0 {
		t.Fatalf("Validate after repair: want 0, got %d", len(vs))
	}
	// Incremental view over the delta-maintained snapshot.
	g.SetAttr(dev, "type", gedlib.String("gardener"))
	vs, err := eng.ValidateIncremental(ctx, g, sigma, []gedlib.NodeID{dev})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("ValidateIncremental: want 1, got %d", len(vs))
	}
}

// ordered renders violations in the order given, evidence included.
func ordered(vs []gedlib.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		if v.GED == nil {
			out[i] = "<zero violation>"
			continue
		}
		s := v.GED.Name
		for _, x := range v.GED.Pattern.Vars() {
			s += fmt.Sprintf(":%s=%d", x, v.Match[x])
		}
		out[i] = s + " fails " + v.Literal.String()
	}
	return out
}

// sameOrdered fails the test unless got and want render identically.
func sameOrdered(t *testing.T, what string, got, want []gedlib.Violation) {
	t.Helper()
	a, b := ordered(got), ordered(want)
	if len(a) != len(b) {
		t.Fatalf("%s: %d violations, want %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: violation %d is %s, want %s", what, i, a[i], b[i])
		}
	}
}

// TestEngineApplyResultOwnership: the slice Apply returns is the
// caller's. Overwriting every element of one result must leave the
// engine's later answers — after an empty delta and after a real one —
// equal to a fresh Validate.
func TestEngineApplyResultOwnership(t *testing.T) {
	ctx := context.Background()
	g, _ := workload.KnowledgeBase(33, 40, 0.4)
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	eng := gedlib.New()
	first, err := eng.Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("workload has no violations to overwrite")
	}
	validate := func() []gedlib.Violation {
		// The parallel validator reports in canonical order, as Apply does.
		vs, err := gedlib.New(gedlib.WithWorkers(2)).Validate(ctx, g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	for i := range first {
		first[i] = gedlib.Violation{}
	}
	got, err := eng.Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sameOrdered(t, "after an empty delta", got, validate())
	for i := range got {
		got[i] = gedlib.Violation{}
	}
	persons := g.NodesWithLabel("person")
	for i, p := range persons[:len(persons)/2] {
		g.SetAttr(p, "type", gedlib.String([]string{"programmer", "psychologist"}[i%2]))
	}
	got, err = eng.Apply(ctx, g, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sameOrdered(t, "after a real delta", got, validate())
}

// TestEngineApplyLimitIsCanonicalPrefix: with WithViolationLimit(n),
// Apply reports the canonically-least n violations — the first n of
// an unlimited parallel Validate, which reports in canonical order — on
// seeding and after a delta, monolithic and sharded.
func TestEngineApplyLimitIsCanonicalPrefix(t *testing.T) {
	ctx := context.Background()
	sigma := gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
	const n = 3
	for _, shards := range []int{1, 2} {
		g, _ := workload.KnowledgeBase(33, 40, 0.4)
		eng := gedlib.New(gedlib.WithViolationLimit(n), gedlib.WithShards(shards))
		for step := 0; step < 2; step++ {
			got, err := eng.Apply(ctx, g, sigma)
			if err != nil {
				t.Fatal(err)
			}
			all, err := gedlib.New(gedlib.WithWorkers(2)).Validate(ctx, g, sigma)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) <= n {
				t.Fatalf("step %d: need more than %d violations, have %d", step, n, len(all))
			}
			sameOrdered(t, fmt.Sprintf("%d shards, step %d", shards, step), got, all[:n])
			for _, p := range g.NodesWithLabel("person")[:5] {
				g.SetAttr(p, "type", gedlib.String("psychologist"))
			}
		}
	}
}
