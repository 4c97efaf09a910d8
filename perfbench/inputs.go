package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"gedlib"
	"gedlib/serve"
	"gedlib/workload"
)

// paperRules is φ1–φ4, the paper's running knowledge-base rules.
func paperRules() gedlib.RuleSet {
	return gedlib.RuleSet{
		workload.PaperPhi1(), workload.PaperPhi2(),
		workload.PaperPhi3(), workload.PaperPhi4(),
	}
}

// tenant is one generated serving graph, written to File in the graph
// JSON wire format.
type tenant struct {
	Name  string
	File  string
	Nodes int
}

// The workloads' graphs and rules are a fixed dataset; the benchmark's
// seed drives the operations run against them (the request stream, the
// delta stream). The knowledge-base generator's planted-violation draw
// moves a graph's violation count by about 12% from one generator seed
// to the next, and memory and cold-validation time move with it, so a
// seeded dataset would fold that lottery into every comparison.
const datasetSeed = 11

// writeTenants generates one knowledge base per scale and writes each
// beside a shared rules file holding φ1–φ4. It returns the tenants and
// the rules file.
func writeTenants(dir string, scales []int) ([]tenant, string, error) {
	var ts []tenant
	for i, scale := range scales {
		g, _ := workload.KnowledgeBase(datasetSeed+int64(i), scale, 0.1)
		data, err := gedlib.MarshalGraph(g)
		if err != nil {
			return nil, "", err
		}
		t := tenant{
			Name:  fmt.Sprintf("tenant%d", i),
			File:  filepath.Join(dir, fmt.Sprintf("tenant%d.json", i)),
			Nodes: g.NumNodes(),
		}
		if err := os.WriteFile(t.File, data, 0o644); err != nil {
			return nil, "", err
		}
		ts = append(ts, t)
	}
	rules := filepath.Join(dir, "rules.ged")
	if err := os.WriteFile(rules, []byte(gedlib.FormatRules(paperRules())), 0o644); err != nil {
		return nil, "", err
	}
	return ts, rules, nil
}

// Engine-batch inputs.
const (
	denseScale   = 2000 // knowledge-base scale under the knows overlay
	randomRules  = 500  // RandomGEDSet rules that never match
	deltaOps     = 10   // mutations per delta
	deltaBacklog = 4000 // deltas generated; a run applies as many as fit
)

// diamondRule walks the dense knows overlay: the diamond x→y→w, x→z→w
// with a selective antecedent, the dense-tail case of the matcher.
const diamondRule = `ged diamond on (x:person)-[knows]->(y:person), (x)-[knows]->(z:person), (y)-[knows]->(w:person), (z)-[knows]->(w) {
  when x.type = "psychologist"
  then w.type = "programmer"
}
`

// denseKB overlays a triadic knows network on a knowledge base: every
// person closes four knows-triangles with random peers.
func denseKB() *gedlib.Graph {
	g, _ := workload.KnowledgeBase(datasetSeed, denseScale, 0.1)
	rng := rand.New(rand.NewSource(datasetSeed + 17))
	persons := g.NodesWithLabel("person")
	for _, p := range persons {
		for k := 0; k < 4; k++ {
			a := persons[rng.Intn(len(persons))]
			b := persons[rng.Intn(len(persons))]
			g.AddEdge(p, "knows", a)
			g.AddEdge(a, "knows", b)
			g.AddEdge(p, "knows", b)
		}
	}
	return g
}

// engineRules is φ1–φ4, the diamond rule and randomRules random rules
// over the knowledge base's labels. The random rules walk edges labeled
// "e", which the knowledge base never has, so they never match: they
// cost every Apply its per-rule overhead and nothing else.
func engineRules() string {
	labels := []gedlib.Label{"person", "product", "country", "city"}
	attrs := []gedlib.Attr{"type", "name"}
	random := workload.RandomGEDSet(datasetSeed, randomRules, 3, labels, attrs, 5)
	return gedlib.FormatRules(paperRules()) + "\n" + diamondRule + "\n" + gedlib.FormatRules(random)
}

// engineDeltas generates the localized delta stream: each delta picks a
// person and applies deltaOps mutations around it, alternating a type
// write (on the person or the peer it last linked) with a new knows edge
// to a random peer. Node ids are the wire ids MarshalGraph writes.
func engineDeltas(seed int64, g *gedlib.Graph) [][]serve.Op {
	rng := rand.New(rand.NewSource(seed + 7))
	persons := g.NodesWithLabel("person")
	wire := func(id gedlib.NodeID) string { return fmt.Sprintf("n%d", id) }
	types := []string{"programmer", "psychologist"}
	out := make([][]serve.Op, deltaBacklog)
	for i := range out {
		p := persons[rng.Intn(len(persons))]
		peer := p
		ops := make([]serve.Op, 0, deltaOps)
		for k := 0; k < deltaOps; k++ {
			if k%2 == 0 {
				ops = append(ops, serve.Op{Op: "set_attr", ID: wire(peer), Attr: "type", Value: types[typeOf(rng)]})
				continue
			}
			peer = persons[rng.Intn(len(persons))]
			ops = append(ops, serve.Op{Op: "add_edge", Src: wire(p), Label: "knows", Dst: wire(peer)})
		}
		out[i] = ops
	}
	return out
}

// typeOf draws a person type index at the knowledge base's own mix:
// one psychologist in ten, so the stream keeps the violation density
// stationary rather than drifting with run length.
func typeOf(rng *rand.Rand) int {
	if rng.Intn(10) == 0 {
		return 1
	}
	return 0
}

// applyOps applies wire-format mutations to g, resolving wire ids
// through names. It supports the two op kinds the workloads generate.
func applyOps(g *gedlib.Graph, names map[string]gedlib.NodeID, ops []serve.Op) error {
	resolve := func(id string) (gedlib.NodeID, error) {
		n, ok := names[id]
		if !ok {
			return 0, fmt.Errorf("unknown node %q", id)
		}
		return n, nil
	}
	for _, op := range ops {
		switch op.Op {
		case "set_attr":
			n, err := resolve(op.ID)
			if err != nil {
				return err
			}
			s, ok := op.Value.(string)
			if !ok {
				return fmt.Errorf("set_attr %s: value %v is not a string", op.ID, op.Value)
			}
			g.SetAttr(n, gedlib.Attr(op.Attr), gedlib.String(s))
		case "add_edge":
			src, err := resolve(op.Src)
			if err != nil {
				return err
			}
			dst, err := resolve(op.Dst)
			if err != nil {
				return err
			}
			g.AddEdge(src, gedlib.Label(op.Label), dst)
		default:
			return fmt.Errorf("unsupported op %q", op.Op)
		}
	}
	return nil
}
