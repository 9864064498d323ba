// Package extract implements TENSAT's extraction phase (§5): choosing
// one e-node per (needed) e-class so the induced graph is a valid,
// minimum-cost tensor DAG. It provides the greedy strategy and the ILP
// formulation (with or without cycle constraints), and reconstructs a
// tensor.Graph from the selection.
package extract

import (
	"context"
	"fmt"
	"math"
	"time"

	"tensat/internal/cost"
	"tensat/internal/egraph"
	"tensat/internal/ilp"
	"tensat/internal/ilp/backend"
	"tensat/internal/ilp/presolve"
	"tensat/internal/obs"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// Result is an extracted graph and how it was obtained.
type Result struct {
	Graph *tensor.Graph
	// Cost is the extracted graph's cost under the extraction model
	// (sum over distinct nodes — sharing counted once).
	Cost float64
	// Time is the wall-clock extraction time.
	Time time.Duration
	// ILP carries solver details for ILP extraction (nil for greedy).
	ILP *ilp.Solution
	// Solver names the ILP backend that produced the solution
	// ("builtin", "builtin-seq", "cbc", "highs"; empty for greedy).
	Solver string
	// Reduction reports what the presolve pass removed from the ILP
	// model before solving (nil for greedy).
	Reduction *presolve.Reduction
}

// nodeCost prices one e-node using the analysis metas of its children.
func nodeCost(g *egraph.EGraph, m cost.Model, n egraph.Node) float64 {
	args := make([]*tensor.Meta, len(n.Children))
	for i, c := range n.Children {
		args[i] = rewrite.ClassMeta(g, c)
		if args[i] == nil {
			return math.Inf(1)
		}
	}
	return m.NodeCost(tensor.Op(n.Op), n.Int, n.Str, args)
}

// Greedy performs the greedy extraction of §5.1: per class, pick the
// e-node minimizing the cost of the subtree rooted at it. As the paper
// notes, this ignores subgraph sharing and can miss (or mis-rank)
// graphs whose benefit comes from reuse — see Table 4.
func Greedy(ex *rewrite.Explored, model cost.Model) (*Result, error) {
	return GreedyContext(context.Background(), ex, model)
}

// GreedyContext is Greedy with cancellation: the fixpoint checks ctx
// between sweeps and aborts with ctx.Err() when the request is dead.
func GreedyContext(ctx context.Context, ex *rewrite.Explored, model cost.Model) (*Result, error) {
	start := time.Now()
	g := ex.G
	picks, err := greedySelectCtx(ctx, ex, model)
	if err != nil {
		return nil, err
	}

	root := g.Find(ex.Root)
	if picks[root] < 0 {
		return nil, fmt.Errorf("extract: greedy found no finite-cost derivation for the root")
	}
	sel := func(id egraph.ClassID) (egraph.Node, bool) {
		cls := g.Class(id)
		k := picks[cls.ID]
		if k < 0 {
			return egraph.Node{}, false
		}
		return cls.Nodes[k], true
	}
	graph, err := buildGraph(g, root, sel)
	if err != nil {
		return nil, fmt.Errorf("extract: greedy: %w", err)
	}
	return &Result{
		Graph: graph,
		Cost:  cost.GraphCost(model, graph),
		Time:  time.Since(start),
	}, nil
}

// greedySelect runs the greedy tree-cost fixpoint (§5.1) and returns,
// per canonical class, the index of the chosen node within
// Class.Nodes (-1 when the class has no finite derivation). Shared by
// Greedy and by ILP's warm start.
func greedySelect(ex *rewrite.Explored, model cost.Model) map[egraph.ClassID]int {
	picks, _ := greedySelectCtx(context.Background(), ex, model)
	return picks
}

// greedySelectCtx is greedySelect with a cancellation check between
// fixpoint sweeps (each sweep is a single pass over the e-graph, so
// cancellation latency is one sweep).
func greedySelectCtx(ctx context.Context, ex *rewrite.Explored, model cost.Model) (map[egraph.ClassID]int, error) {
	g := ex.G
	picks := make(map[egraph.ClassID]int)
	classCost := make(map[egraph.ClassID]float64)
	var classes []*egraph.Class
	g.Classes(func(c *egraph.Class) {
		classes = append(classes, c)
		classCost[c.ID] = math.Inf(1)
		picks[c.ID] = -1
	})

	// Per-node operator costs never change across sweeps (only the
	// class costs below do), so price every e-node exactly once up
	// front instead of on every Bellman sweep. Filtered nodes get an
	// infinite cost, which also removes the per-sweep filter lookup.
	nodeCosts := make([][]float64, len(classes))
	for ci, cls := range classes {
		cc := make([]float64, len(cls.Nodes))
		for i, n := range cls.Nodes {
			if ex.Filtered.Has(cls.Stamps[i]) {
				cc[i] = math.Inf(1)
				continue
			}
			cc[i] = nodeCost(g, model, n)
		}
		nodeCosts[ci] = cc
	}

	// Fixpoint over tree costs (Bellman-style; terminates because costs
	// only decrease and every finite value stems from an acyclic
	// derivation, of which there are finitely many).
	for changed := true; changed; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed = false
		for ci, cls := range classes {
			for i, n := range cls.Nodes {
				t := nodeCosts[ci][i]
				if math.IsInf(t, 1) {
					continue
				}
				for _, ch := range n.Children {
					t += classCost[g.Find(ch)]
				}
				if t < classCost[cls.ID] {
					classCost[cls.ID] = t
					picks[cls.ID] = i
					changed = true
				}
			}
		}
	}
	return picks, nil
}

// originalSelect recovers the input graph as a selection: per class,
// the earliest-inserted node if it predates exploration (ingest-time
// stamps are preserved minimally through rebuild deduplication).
// Returns nil when the Explored carries no ingest stamp.
func originalSelect(ex *rewrite.Explored) map[egraph.ClassID]int {
	if ex.IngestStamp == 0 {
		return nil
	}
	picks := make(map[egraph.ClassID]int)
	ex.G.Classes(func(cls *egraph.Class) {
		best, idx := int64(1<<62), -1
		for i, st := range cls.Stamps {
			if st <= ex.IngestStamp && st < best && !ex.Filtered.Has(st) {
				best, idx = st, i
			}
		}
		picks[cls.ID] = idx
	})
	return picks
}

// ILPOptions configure ILP extraction.
type ILPOptions struct {
	// CycleConstraints includes the topological-order constraints of
	// §5.1 — required when the e-graph was explored with FilterNone.
	CycleConstraints bool
	// TopoMode selects real vs integer topological variables (Table 5).
	TopoMode ilp.TopoMode
	// Timeout bounds the solver (paper: 1 hour).
	Timeout time.Duration
	// Solver selects the ILP backend by name: "" or "builtin" for the
	// in-process branch-and-bound with ilp.DefaultWorkers goroutines,
	// "builtin-seq" for the same search with one (it returns the same
	// graph), "cbc"/"highs" for an external MPS solver on PATH.
	Solver string
	// OnIncumbent, when non-nil, receives every improvement of the
	// solver's incumbent — the cost of the best extraction found so
	// far — from the solving goroutine. Long ILP runs use it to report
	// live anytime progress.
	OnIncumbent func(cost float64)
	// Trace, when non-nil, receives phase spans: an "ilp" span with
	// "model" (problem build + warm starts) and "solve" children, the
	// latter carrying an "incumbent" event per improvement.
	Trace *obs.Trace
}

// DefaultStallLimit is the incumbent-stall cutoff of every solve. It plays
// the role of a MIP gap tolerance: on heavily merged e-graphs the
// branch-and-bound's combinatorial bound cannot close the gap the way
// SCIP's LP relaxation does, so extraction returns the best incumbent
// after this many fruitless expansions.
const DefaultStallLimit = 2_000_000

// ILP performs ILP extraction. When the exploration used cycle
// filtering the cycle constraints can be dropped, which is the paper's
// key scalability lever (Table 5); filtered nodes become x_i = 0.
func ILP(ex *rewrite.Explored, model cost.Model, opts ILPOptions) (*Result, error) {
	return ILPContext(context.Background(), ex, model, opts)
}

// ProblemIndex ties an exported ilp.Problem back to the e-graph it
// was built from: problem class ci is ClassIDs[ci], and problem node
// (variable) vi is the e-node Node(vi).
type ProblemIndex struct {
	ClassIDs []egraph.ClassID
	classIdx map[egraph.ClassID]int
	nodes    []egraph.Node
}

// ClassIndex returns the problem's class index for an e-class.
func (ix *ProblemIndex) ClassIndex(g *egraph.EGraph, id egraph.ClassID) int {
	return ix.classIdx[g.Find(id)]
}

// Node returns the e-node behind problem variable vi.
func (ix *ProblemIndex) Node(vi int) egraph.Node { return ix.nodes[vi] }

// BuildProblem formulates the extraction ILP of §5.1 for an explored
// e-graph — costs from the model, one binary per e-node, filtered
// nodes forbidden, warm starts from the greedy extraction and the
// original input graph — without solving it. Exposed so callers can
// dump the model (lpfile), benchmark solvers against real instances,
// or hand it to an external process.
//
//lint:ctxflow-exempt bounded passes over the in-memory e-graph; no solving, no I/O
func BuildProblem(ex *rewrite.Explored, model cost.Model, opts ILPOptions) (*ilp.Problem, *ProblemIndex, error) {
	g := ex.G
	if !opts.CycleConstraints && !rewrite.IsAcyclic(g, ex.Filtered) {
		return nil, nil, fmt.Errorf("extract: e-graph has cycles; ILP without cycle constraints requires cycle filtering")
	}

	// Index classes and nodes.
	ix := &ProblemIndex{classIdx: make(map[egraph.ClassID]int)}
	g.Classes(func(c *egraph.Class) {
		ix.classIdx[c.ID] = len(ix.ClassIDs)
		ix.ClassIDs = append(ix.ClassIDs, c.ID)
	})
	p := &ilp.Problem{
		Root:             ix.classIdx[g.Find(ex.Root)],
		Classes:          make([][]int, len(ix.ClassIDs)),
		CycleConstraints: opts.CycleConstraints,
		TopoMode:         opts.TopoMode,
		Timeout:          opts.Timeout,
		StallLimit:       DefaultStallLimit,
	}
	for ci, id := range ix.ClassIDs {
		cls := g.Class(id)
		for i, n := range cls.Nodes {
			vi := len(ix.nodes)
			ix.nodes = append(ix.nodes, n)
			p.Costs = append(p.Costs, nodeCost(g, model, n))
			p.ClassOf = append(p.ClassOf, ci)
			children := make([]int, len(n.Children))
			for k, ch := range n.Children {
				children[k] = ix.classIdx[g.Find(ch)]
			}
			p.Children = append(p.Children, children)
			p.Classes[ci] = append(p.Classes[ci], vi)
			if ex.Filtered.Has(cls.Stamps[i]) {
				if p.Forbidden == nil {
					p.Forbidden = make([]bool, 0, 64)
				}
				for len(p.Forbidden) < vi {
					p.Forbidden = append(p.Forbidden, false)
				}
				p.Forbidden = append(p.Forbidden, true)
			}
		}
	}
	if p.Forbidden != nil {
		for len(p.Forbidden) < len(p.Costs) {
			p.Forbidden = append(p.Forbidden, false)
		}
	}

	// Warm-start with (a) the greedy extraction and (b) the original
	// input graph (nodes whose insertion stamps predate exploration),
	// so the ILP result is never worse than either, however early the
	// search is cut off.
	offset := make([]int, len(ix.ClassIDs))
	vi := 0
	for ci, id := range ix.ClassIDs {
		offset[ci] = vi
		vi += len(g.Class(id).Nodes)
	}
	toWarm := func(picks map[egraph.ClassID]int) []int {
		ws := make([]int, len(ix.ClassIDs))
		for ci, id := range ix.ClassIDs {
			//lint:canonical ClassIDs enumerates the canonical class table (built from g.Classes above)
			k := picks[id]
			if k < 0 {
				ws[ci] = -1
				continue
			}
			ws[ci] = offset[ci] + k
		}
		return ws
	}
	p.WarmStarts = append(p.WarmStarts, toWarm(greedySelect(ex, model)))
	if orig := originalSelect(ex); orig != nil {
		p.WarmStarts = append(p.WarmStarts, toWarm(orig))
	}
	return p, ix, nil
}

// ILPContext is ILP with cancellation: the branch-and-bound treats a
// done context like an expired deadline (best incumbent with
// Optimal=false); a cancellation that lands before any incumbent
// exists surfaces as the context's own error.
func ILPContext(ctx context.Context, ex *rewrite.Explored, model cost.Model, opts ILPOptions) (*Result, error) {
	start := time.Now()
	g := ex.G
	tr := opts.Trace
	tr.Begin("ilp")
	defer tr.End()

	tr.Begin("model")
	p, ix, err := BuildProblem(ex, model, opts)
	if err != nil {
		tr.End()
		return nil, err
	}
	if opts.OnIncumbent != nil || tr != nil {
		p.OnIncumbent = func(cost float64, _ int64) {
			tr.Event("incumbent", cost)
			if opts.OnIncumbent != nil {
				opts.OnIncumbent(cost)
			}
		}
	}
	tr.Attr("classes", int64(len(ix.ClassIDs)))
	tr.Attr("variables", int64(len(p.Costs)))
	tr.End() // model

	tr.Begin("presolve")
	reduced, red, err := presolve.Run(ctx, p)
	if err != nil {
		tr.End()
		return nil, fmt.Errorf("extract: ilp: presolve: %w", err)
	}
	tr.Attr("vars_fixed", int64(red.VarsFixed))
	tr.Attr("nodes_dropped", int64(red.NodesDropped))
	tr.Attr("constraints_removed", int64(red.ConstraintsRemoved))
	tr.End() // presolve

	solver, err := backend.Select(opts.Solver)
	if err != nil {
		return nil, fmt.Errorf("extract: ilp: %w", err)
	}
	tr.Begin("solve")
	sol, err := solver.Solve(ctx, reduced)
	if err != nil {
		tr.End()
		return nil, fmt.Errorf("extract: ilp: %w", err)
	}
	tr.Attr("explored", sol.Explored)
	tr.Attr("incumbents", int64(sol.Incumbents))
	tr.Attr("workers", int64(sol.Workers))
	if sol.Optimal {
		tr.Attr("optimal", 1)
	} else {
		tr.Attr("optimal", 0)
	}
	tr.End() // solve
	// Whichever backend answered, the model as built — before presolve
	// narrowed it — judges the selection: a node the cycle filter
	// forbade, or one from another class, never reaches buildGraph.
	if _, _, err := p.Check(sol.NodeOf); err != nil {
		return nil, fmt.Errorf("extract: ilp: %s solution rejected: %w", solver.Name(), err)
	}
	sel := func(id egraph.ClassID) (egraph.Node, bool) {
		vi, ok := sol.NodeOf[ix.classIdx[g.Find(id)]]
		if !ok {
			return egraph.Node{}, false
		}
		return ix.nodes[vi], true
	}
	graph, err := buildGraph(g, g.Find(ex.Root), sel)
	if err != nil {
		return nil, fmt.Errorf("extract: ilp: %w", err)
	}
	return &Result{
		Graph:     graph,
		Cost:      cost.GraphCost(model, graph),
		Time:      time.Since(start),
		ILP:       sol,
		Solver:    solver.Name(),
		Reduction: &red,
	}, nil
}

// buildGraph materializes the selection into a tensor.Graph, verifying
// acyclicity of the chosen derivation as it goes.
func buildGraph(g *egraph.EGraph, root egraph.ClassID,
	sel func(egraph.ClassID) (egraph.Node, bool)) (*tensor.Graph, error) {

	built := make(map[egraph.ClassID]*tensor.Node)
	onPath := make(map[egraph.ClassID]bool)
	var build func(id egraph.ClassID) (*tensor.Node, error)
	build = func(id egraph.ClassID) (*tensor.Node, error) {
		id = g.Find(id)
		if n, ok := built[id]; ok {
			return n, nil
		}
		if onPath[id] {
			return nil, fmt.Errorf("selection contains a cycle through class %d", id)
		}
		onPath[id] = true
		defer delete(onPath, id)
		en, ok := sel(id)
		if !ok {
			return nil, fmt.Errorf("no node selected for class %d", id)
		}
		tn := &tensor.Node{Op: tensor.Op(en.Op), Int: en.Int, Str: en.Str}
		args := make([]*tensor.Meta, len(en.Children))
		for i, ch := range en.Children {
			child, err := build(ch)
			if err != nil {
				return nil, err
			}
			tn.Inputs = append(tn.Inputs, child)
			args[i] = child.Meta
			// split reads its boundary from the e-class analysis (§3.1),
			// not from whichever member node extraction picked: a class
			// can mix marker-carrying and marker-less derivations of the
			// same tensor, so graft the class marker onto the child meta.
			if cm := rewrite.ClassMeta(g, ch); cm != nil && cm.HasSplit && args[i] != nil && !args[i].HasSplit {
				grafted := args[i].Clone()
				grafted.HasSplit, grafted.SplitAxis, grafted.SplitAt = true, cm.SplitAxis, cm.SplitAt
				args[i] = grafted
				child.Meta = grafted
			}
		}
		meta, err := tensor.Infer(tn.Op, tn.Int, tn.Str, args)
		if err != nil {
			return nil, fmt.Errorf("extracted node %v fails shape inference: %w", tn.Op, err)
		}
		tn.Meta = meta
		built[id] = tn
		return tn, nil
	}
	rootNode, err := build(root)
	if err != nil {
		return nil, err
	}
	graph := &tensor.Graph{Root: rootNode, Outputs: collectOutputs(rootNode)}
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	return graph, nil
}

// collectOutputs unwinds the noop chain that made the graph
// single-rooted, recovering the real output nodes.
func collectOutputs(root *tensor.Node) []*tensor.Node {
	if root.Op != tensor.OpNoop {
		return []*tensor.Node{root}
	}
	var outs []*tensor.Node
	outs = append(outs, collectOutputs(root.Inputs[0])...)
	outs = append(outs, collectOutputs(root.Inputs[1])...)
	return outs
}
