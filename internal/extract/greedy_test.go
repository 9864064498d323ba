package extract

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tensat/internal/cost"
	"tensat/internal/egraph"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

// TestGreedyGolden pins greedy extraction on every zoo model — cost and
// the SHA-256 of the extracted graph's text — to the file recorded at
// the commit before greedy moved onto the ILP model's tree-cost
// fixpoint: sharing one model with the ILP must not move a single
// output byte.
func TestGreedyGolden(t *testing.T) {
	const path = "testdata/greedy_golden.json"
	got := make(map[string]goldenRow)
	for name, ex := range zooExplore(t) {
		res, err := GreedyContext(context.Background(), ex, cost.NewT4())
		if err != nil {
			t.Fatalf("%s: greedy: %v", name, err)
		}
		text, err := res.Graph.MarshalText()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		sum := sha256.Sum256(text)
		got[name] = goldenRow{Cost: res.Cost, SHA256: hex.EncodeToString(sum[:])}
	}
	checkGoldenRows(t, path, got)
}

// TestZooClassesAreShapeConsistent: every live node of an explored zoo
// e-graph infers, from its children's class metas, the kind, shapes and
// payload its own class carries. A node that does not is an unsound
// merge, and extraction could pick it. Besides the zoo's e-graphs, two
// run multi-pattern rules for two iterations (NasNet-A at 3,000 nodes
// without cycle filtering, SqueezeNet at 10,000), where splits over
// merged concats meet.
func TestZooClassesAreShapeConsistent(t *testing.T) {
	explored := make(map[string]*rewrite.Explored)
	for name, ex := range zooExplore(t) {
		explored[name] = ex
	}
	for _, tc := range []struct {
		model  string
		nodes  int
		filter rewrite.FilterMode
	}{
		{"NasNet-A", 3000, rewrite.FilterNone},
		{"SqueezeNet", 10000, rewrite.FilterEfficient},
	} {
		m, err := models.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		r := rewrite.NewRunner(rules.Default())
		r.Filter = tc.filter
		r.Limits = rewrite.Limits{MaxNodes: tc.nodes, MaxIters: 15, KMulti: 2}
		ex, err := r.RunContext(context.Background(), m.Build(models.ScaleTest))
		if err != nil {
			t.Fatalf("%s: explore: %v", tc.model, err)
		}
		explored[tc.model+" k_multi 2"] = ex
	}
	for name, ex := range explored {
		g, bad, nodes := ex.G, 0, 0
		g.Classes(func(cls *egraph.Class) {
			want := rewrite.ClassMeta(g, cls.ID)
			for _, nid := range cls.Nodes {
				n := g.Node(nid)
				nodes++
				args := make([]*tensor.Meta, len(n.Children))
				typed := want != nil
				for i, ch := range n.Children {
					args[i] = rewrite.ClassMeta(g, ch)
					typed = typed && args[i] != nil
				}
				var got *tensor.Meta
				err := fmt.Errorf("a class meta is missing")
				if typed {
					got, err = tensor.Infer(tensor.Op(n.Op), n.Int, n.Str, args)
				}
				if err == nil && got.Equivalent(want) {
					continue
				}
				if bad++; bad <= 3 {
					t.Errorf("%s: class %d (%v): %v node infers %v, err %v", name, cls.ID, want, tensor.Op(n.Op), got, err)
				}
			}
		})
		if bad > 0 {
			t.Errorf("%s: %d of %d nodes disagree with their class meta", name, bad, nodes)
		}
	}
}
