package extract

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/ilp"
	"tensat/internal/ilp/lpfile"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// figure2Setup builds the two-matmuls-shared-input graph and the
// Figure 2 multi-pattern rule, explores, and returns everything needed
// for extraction tests. Sizes chosen so the merged matmul is cheaper
// than two separate ones but dearer than one (the Table 4 regime where
// greedy fails and ILP wins).
func figure2Setup(t *testing.T, filter rewrite.FilterMode) (*rewrite.Explored, *tensor.Graph, cost.Model) {
	t.Helper()
	b := tensor.NewBuilder()
	x := b.Input("x", 64, 256)
	w1 := b.Weight("w1", 256, 256)
	w2 := b.Weight("w2", 256, 256)
	g := b.MustFinish(b.Matmul(tensor.ActNone, x, w1), b.Matmul(tensor.ActNone, x, w2))
	rule, err := rewrite.NewMultiRule("matmul-merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")
	if err != nil {
		t.Fatal(err)
	}
	r := rewrite.NewRunner([]*rewrite.Rule{rule})
	r.Filter = filter
	r.Limits.KMulti = 1
	r.Limits.MaxIters = 2
	ex, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	return ex, g, cost.NewT4()
}

func TestGreedyExtractsOriginalWhenNoSharingAwareness(t *testing.T) {
	ex, g, model := figure2Setup(t, rewrite.FilterEfficient)
	res, err := Greedy(ex, model)
	if err != nil {
		t.Fatal(err)
	}
	orig := cost.GraphCost(model, g)
	// Greedy never picks the split nodes (paper §6.5): its result costs
	// the same as the original graph.
	if res.Cost < orig-1e-6 {
		t.Fatalf("greedy cost %v below original %v — unexpectedly exploited sharing", res.Cost, orig)
	}
	if h := res.Graph.OpHistogram(); h[tensor.OpSplit0] != 0 {
		t.Fatalf("greedy picked split nodes: %v", tensor.HistogramString(h))
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestILPExploitsSharing(t *testing.T) {
	ex, g, model := figure2Setup(t, rewrite.FilterEfficient)
	res, err := ILP(ex, model, ILPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	orig := cost.GraphCost(model, g)
	if res.Cost >= orig {
		t.Fatalf("ILP cost %v did not improve on original %v", res.Cost, orig)
	}
	h := res.Graph.OpHistogram()
	if h[tensor.OpSplit0] != 1 || h[tensor.OpSplit1] != 1 || h[tensor.OpMatmul] != 1 {
		t.Fatalf("ILP graph shape unexpected: %v", tensor.HistogramString(h))
	}
	if !res.ILP.Optimal {
		t.Fatal("solver did not prove optimality")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// ILP beats greedy (Table 4's point).
	gres, err := Greedy(ex, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= gres.Cost {
		t.Fatalf("ILP %v not better than greedy %v", res.Cost, gres.Cost)
	}
}

func TestILPWithCycleConstraintsOnUnfilteredEGraph(t *testing.T) {
	ex, g, model := figure2Setup(t, rewrite.FilterNone)
	// Without cycle filtering, cycle-free extraction must be requested
	// via the constrained formulation.
	if _, err := ILP(ex, model, ILPOptions{}); err == nil && !rewrite.IsAcyclic(ex.G, &ex.Filtered) {
		t.Fatal("unconstrained ILP accepted a cyclic e-graph")
	}
	for _, mode := range []ilp.TopoMode{ilp.TopoReal, ilp.TopoInt} {
		res, err := ILP(ex, model, ILPOptions{CycleConstraints: true, TopoMode: mode, Timeout: time.Minute})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("%v: extracted graph invalid: %v", mode, err)
		}
		orig := cost.GraphCost(model, g)
		if res.Cost >= orig {
			t.Fatalf("%v: constrained ILP cost %v did not improve on %v", mode, res.Cost, orig)
		}
	}
}

func TestCycleFilteredAndConstrainedAgree(t *testing.T) {
	// The two routes to acyclic extraction must find the same optimum.
	exF, _, model := figure2Setup(t, rewrite.FilterEfficient)
	exN, _, _ := figure2Setup(t, rewrite.FilterNone)
	a, err := ILP(exF, model, ILPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ILP(exN, model, ILPOptions{CycleConstraints: true, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if diff := a.Cost - b.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("optima differ: filtered=%v constrained=%v", a.Cost, b.Cost)
	}
}

func TestExtractionOnTrivialGraph(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 8)
	g := b.MustFinish(b.Relu(x))
	r := rewrite.NewRunner(nil)
	ex, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewT4()
	gr, err := Greedy(ex, model)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := ILP(ex, model, ILPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	orig := cost.GraphCost(model, g)
	if gr.Cost != orig || ir.Cost != orig {
		t.Fatalf("trivial extraction changed cost: greedy=%v ilp=%v orig=%v", gr.Cost, ir.Cost, orig)
	}
	want, _ := g.MarshalText()
	greedyText, _ := gr.Graph.MarshalText()
	ilpText, _ := ir.Graph.MarshalText()
	if !bytes.Equal(greedyText, want) || !bytes.Equal(ilpText, want) {
		t.Fatal("trivial extraction changed the graph")
	}
}

func TestExtractedGraphPreservesOutputs(t *testing.T) {
	ex, g, model := figure2Setup(t, rewrite.FilterEfficient)
	res, err := ILP(ex, model, ILPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graph.Outputs) != len(g.Outputs) {
		t.Fatalf("output count changed: %d -> %d", len(g.Outputs), len(res.Graph.Outputs))
	}
	for i, out := range res.Graph.Outputs {
		if !out.Meta.Shape.Equal(g.Outputs[i].Meta.Shape) {
			t.Fatalf("output %d shape changed: %v -> %v", i, g.Outputs[i].Meta.Shape, out.Meta.Shape)
		}
	}
}

// TestILPRefusesForbiddenNodeFromBackend plays a cbc (the shell-script
// fake of the backend package's TestExternalFakeCBC) whose answer is
// the true optimum of the Figure 2 model, accepts it, then forbids one
// of the nodes it names and replays the same file: the model must now
// refuse the selection instead of building a graph from it.
func TestILPRefusesForbiddenNodeFromBackend(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell script fake")
	}
	ex, _, model := figure2Setup(t, rewrite.FilterEfficient)
	p, ix, err := BuildProblem(ex, model, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ilp.SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var answer strings.Builder
	fmt.Fprintf(&answer, "Optimal - objective value %.8f\n", sol.Cost)
	dearest := -1
	for c, i := range sol.NodeOf {
		fmt.Fprintf(&answer, "%7d %s 1 %g\n", i, lpfile.VarName(c, i), p.Costs[i])
		if dearest < 0 || p.Costs[i] > p.Costs[dearest] {
			dearest = i
		}
	}
	dir := t.TempDir()
	script := "#!/bin/sh\n# args: model.mps -seconds N solve -solution <out>\n" +
		"while [ \"$1\" != \"-solution\" ]; do shift || exit 2; done\ncat > \"$2\" <<'EOF'\n" + answer.String() + "EOF\n"
	if err := os.WriteFile(filepath.Join(dir, "cbc"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))

	res, err := ILP(ex, model, ILPOptions{Solver: "cbc", Timeout: time.Minute})
	if err != nil {
		t.Fatalf("sound answer refused: %v", err)
	}
	if res.Solver != "cbc" || res.ILP.Cost != sol.Cost {
		t.Fatalf("solver %q cost %v, want cbc at %v", res.Solver, res.ILP.Cost, sol.Cost)
	}

	// Filter the dearest node the answer names (the merged matmul), the
	// way the cycle filter would have.
	c := p.ClassOf[dearest]
	for k, i := range p.Classes[c] {
		if i == dearest {
			ex.Filtered.Add(ex.G.NodeStamp(ex.G.Class(ix.ClassIDs[c]).Nodes[k]))
		}
	}
	// Presolve also drops every node that needs the now-empty class, so
	// the first forbidden node the check meets need not be this one.
	_, err = ILP(ex, model, ILPOptions{Solver: "cbc", Timeout: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "solution rejected") || !strings.Contains(err.Error(), "forbidden node") {
		t.Fatalf("err = %v, want the selection refused for a forbidden node", err)
	}
}
