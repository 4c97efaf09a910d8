package reason

import (
	"context"
	"math/rand"
	"testing"

	"gedlib/internal/ged"
	"gedlib/internal/gen"
	"gedlib/internal/graph"
)

func BenchmarkStoreApplyKB2000(b *testing.B) {
	ctx := context.Background()
	g, _ := gen.KnowledgeBase(11, 2000, 0.1)
	sigma := ged.Set{gen.PaperPhi1(), gen.PaperPhi2(), gen.PaperPhi3(), gen.PaperPhi4()}
	st, err := NewViolationStoreCtx(ctx, NewValidatorOn(g.Freeze(), sigma))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	types := []graph.Value{graph.String("programmer"), graph.String("psychologist")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := st.Snapshot().SourceVersion()
		for k := 0; k < 10; k++ {
			id := graph.NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(2) == 0 {
				g.SetAttr(id, "type", types[rng.Intn(2)])
			} else {
				g.AddEdge(id, "create", graph.NodeID(rng.Intn(g.NumNodes())))
			}
		}
		d := g.DeltaSince(from)
		if err := st.Apply(ctx, st.Snapshot().Apply(d), d.TouchedNodes()); err != nil {
			b.Fatal(err)
		}
		_ = st.AppendViolations(nil, 0)
	}
}
