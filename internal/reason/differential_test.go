package reason

// Differential tests for the validators against the brute-force
// reference (bruteForceViolations): full sequential, data-parallel and
// touched-neighborhood validation over the frozen snapshot must report
// exactly the violations, with the same evidence literal, that trying
// every assignment over the mutable graph finds — and, for the
// canonical-order operations, in the same order. The benchmarks measure
// one-shot and cached-snapshot validation on the workload generators'
// larger graphs.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
)

// orderedCanon renders violations in their reported order (no sorting),
// so equality checks cover order as well as membership.
func orderedCanon(vs []Violation, sigma ged.Set) []string {
	idx := make(map[*ged.GED]int)
	for i, d := range sigma {
		idx[d] = i
	}
	keys := make([]string, 0, len(vs))
	for _, v := range vs {
		s := ""
		for _, x := range v.GED.Pattern.Vars() {
			s += string(x) + "=" + itoa(int(v.Match[x])) + ";"
		}
		keys = append(keys, itoa(idx[v.GED])+":"+s)
	}
	return keys
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestValidateSnapshotDifferential: quick-generated workloads validate
// to the reference's violation set, evidence included, and the
// canonical-order parallel path returns the reference's ordered list.
func TestValidateSnapshotDifferential(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed % 1_000_000))
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		v := NewValidatorOn(g.Freeze(), sigma)
		want := violationBytes(bruteForceViolations(g, sigma), sigma)

		seq, _ := v.RunCtx(ctx, 0)
		sortViolations(seq, sigma)
		if got := violationBytes(seq, sigma); got != want {
			t.Logf("seed %d: sequential violations differ from the reference:\n got %q\nwant %q", seed, got, want)
			return false
		}
		par, _ := v.RunParallelCtx(ctx, 0, 4)
		if got := violationBytes(par, sigma); got != want {
			t.Logf("seed %d: parallel violations or their order differ from the reference:\n got %q\nwant %q", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateTouchingSnapshotDifferential: the incremental path
// reports exactly the reference violations binding a touched node,
// order included (its contract is canonical order).
func TestValidateTouchingSnapshotDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 15; trial++ {
		sigma := randomSigma(rng)
		g := randomGraph(rng)
		var touched []graph.NodeID
		for i := 0; i < 5 && i < g.NumNodes(); i++ {
			touched = append(touched, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		got, _ := NewValidatorOn(g.Freeze(), sigma).TouchingCtx(ctx, touched, 0)
		want := touching(bruteForceViolations(g, sigma), touched)
		if violationBytes(got, sigma) != violationBytes(want, sigma) {
			t.Fatalf("trial %d: incremental violations differ from the reference:\n got %q\nwant %q",
				trial, violationBytes(got, sigma), violationBytes(want, sigma))
		}
	}
}

// TestValidatorSnapshotSharing: a validator built on a shared snapshot
// equals one that froze privately, and both equal the reference.
func TestValidatorSnapshotSharing(t *testing.T) {
	ctx := context.Background()
	g, _ := gen.KnowledgeBase(23, 60, 0.25)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	shared, _ := NewValidatorOn(g.Freeze(), sigma).RunCtx(ctx, 0)
	private, _ := NewValidator(g, sigma).RunCtx(ctx, 0)
	a := canonViolations(shared, sigma)
	b := canonViolations(private, sigma)
	c := canonViolations(bruteForceViolations(g, sigma), sigma)
	if !equalStrings(a, b) || !equalStrings(b, c) {
		t.Fatalf("validator paths disagree: %d / %d / %d violations", len(a), len(b), len(c))
	}
}

// ---- benchmarks: one-shot freeze + validate vs a cached snapshot ----

func benchValidate(b *testing.B, scale int) {
	g, _ := gen.KnowledgeBase(31, scale, 0.1)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	ctx := context.Background()
	b.Run("snapshot", func(b *testing.B) {
		// Freeze cost is included: this is the one-shot path.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewValidator(g, sigma).RunCtx(ctx, 0)
		}
	})
	b.Run("snapshot-cached", func(b *testing.B) {
		snap := g.Freeze()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewValidatorOn(snap, sigma).RunCtx(ctx, 0)
		}
	})
}

func BenchmarkValidateKB200(b *testing.B)  { benchValidate(b, 200) }
func BenchmarkValidateKB800(b *testing.B)  { benchValidate(b, 800) }
func BenchmarkValidateKB2000(b *testing.B) { benchValidate(b, 2000) }

func BenchmarkValidateSpamHosts(b *testing.B) {
	g, _ := gen.SocialNetwork(7, 12, 14)
	sigma := ged.Set{gen.PaperPhi5(2)}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		NewValidator(g, sigma).RunCtx(ctx, 0)
	}
}
