// Package extract implements TENSAT's extraction phase (§5): choosing
// one e-node per (needed) e-class so the induced graph is a valid,
// minimum-cost tensor DAG. Both strategies read one model of the
// explored e-graph, an ilp.Problem: greedy is the model's tree-cost
// selection, ILP solves it (with or without cycle constraints), and
// either answer is judged by Problem.Check before one builder
// reconstructs a tensor.Graph from it.
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
	// ("builtin", "cbc", "highs"; empty for greedy).
	Solver string
	// Reduction reports what the presolve pass removed from the ILP
	// model before solving (nil for greedy).
	Reduction *presolve.Reduction
}

// nodeCost prices one e-node using the analysis metas of its children.
func nodeCost(g *egraph.EGraph, m cost.Model, n *egraph.Node) float64 {
	args := make([]*tensor.Meta, len(n.Children))
	for i, c := range n.Children {
		args[i] = rewrite.ClassMeta(g, c)
		if args[i] == nil {
			return math.Inf(1)
		}
	}
	return m.NodeCost(tensor.Op(n.Op), n.Int, n.Str, args)
}

// GreedyContext performs the greedy extraction of §5.1: per class, pick
// the e-node minimizing the cost of the subtree rooted at it. That is
// the model's tree-cost selection (ilp.Problem.TreeCosts), which the
// builtin ILP solver also starts from over its presolved model, and
// Problem.Check judges it like any ILP answer.
// As the paper notes, it ignores subgraph sharing and can miss (or
// mis-rank) graphs whose benefit comes from reuse — see Table 4.
// ctx is checked before and after the tree-cost fixpoint, which runs
// over the in-memory model, and a dead request aborts with ctx.Err().
func GreedyContext(ctx context.Context, ex *rewrite.Explored, model cost.Model) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, ix, _ := buildModel(ex, model)
	_, picks := p.TreeCosts(nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if picks[p.Root] < 0 {
		return nil, fmt.Errorf("extract: greedy found no finite-cost derivation for the root")
	}
	sel := make(map[int]int, len(picks))
	for c, i := range picks {
		if i >= 0 {
			sel[c] = i
		}
	}
	_, closure, err := p.Check(sel)
	if err != nil {
		return nil, fmt.Errorf("extract: greedy: selection rejected: %w", err)
	}
	graph, err := ix.buildGraph(ex.G, ex.Root, closure)
	if err != nil {
		return nil, fmt.Errorf("extract: greedy: %w", err)
	}
	return &Result{
		Graph: graph,
		Cost:  cost.GraphCost(model, graph),
		Time:  time.Since(start),
	}, nil
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
	// "cbc"/"highs" for an external MPS solver on PATH.
	Solver string
	// OnIncumbent, when non-nil, receives every improvement of the
	// solver's incumbent — the cost of the best extraction found so
	// far — from the solving goroutine. Long ILP runs use it to report
	// live anytime progress.
	OnIncumbent func(cost float64)
	// Trace, when non-nil, receives phase spans: an "ilp" span with
	// "model" (problem build), "presolve" and "solve" children, the
	// latter carrying an "incumbent" event per improvement.
	Trace *obs.Trace
}

// DefaultStallLimit is the incumbent-stall cutoff of every solve. It plays
// the role of a MIP gap tolerance: on heavily merged e-graphs the
// branch-and-bound's combinatorial bound cannot close the gap the way
// SCIP's LP relaxation does, so extraction returns the best incumbent
// after this many fruitless expansions.
const DefaultStallLimit = 2_000_000

// ProblemIndex ties an exported ilp.Problem back to the e-graph it
// was built from: problem class ci is ClassIDs[ci], and problem node
// (variable) vi is the vi-th e-node in class order.
type ProblemIndex struct {
	ClassIDs []egraph.ClassID
	// classIdx maps a canonical class id to its problem class.
	//
	//lint:classtable
	classIdx []int
	nodes    []egraph.ClassID // variable -> e-node id
}

// buildModel is the one model both extractors read: one variable per
// e-node, in class order, priced by the cost model, and filtered nodes
// forbidden. In the same pass it records the input graph as a selection
// (variable per class, -1 for none): per class the earliest-inserted
// unfiltered node that predates exploration, since ingest-time stamps
// are preserved minimally through rebuild deduplication. The selection
// is nil when ex carries no ingest stamp. The caller sets the solver
// options.
func buildModel(ex *rewrite.Explored, model cost.Model) (*ilp.Problem, *ProblemIndex, []int) {
	g := ex.G
	ix := &ProblemIndex{classIdx: make([]int, g.Stamp())}
	vars := g.NodeCount()
	g.Classes(func(c *egraph.Class) {
		ix.classIdx[c.ID] = len(ix.ClassIDs)
		ix.ClassIDs = append(ix.ClassIDs, c.ID)
	})
	ix.nodes = make([]egraph.ClassID, 0, vars)
	p := &ilp.Problem{
		Costs:     make([]float64, 0, vars),
		ClassOf:   make([]int, 0, vars),
		Children:  make([][]int, 0, vars),
		Classes:   make([][]int, len(ix.ClassIDs)),
		Forbidden: make([]bool, 0, vars),
		Root:      ix.classIdx[g.Find(ex.Root)],
	}
	var orig []int
	if ex.IngestStamp != 0 {
		orig = make([]int, len(ix.ClassIDs))
	}
	forbidden := false
	for ci, id := range ix.ClassIDs {
		cls := g.Class(id)
		first := int64(1 << 62)
		if orig != nil {
			orig[ci] = -1
		}
		for _, nid := range cls.Nodes {
			n := g.Node(nid)
			vi := len(ix.nodes)
			ix.nodes = append(ix.nodes, nid)
			p.Costs = append(p.Costs, nodeCost(g, model, n))
			p.ClassOf = append(p.ClassOf, ci)
			children := make([]int, len(n.Children))
			for k, ch := range n.Children {
				children[k] = ix.classIdx[g.Find(ch)]
			}
			p.Children = append(p.Children, children)
			p.Classes[ci] = append(p.Classes[ci], vi)
			st := g.NodeStamp(nid)
			filtered := ex.Filtered.Has(st)
			p.Forbidden = append(p.Forbidden, filtered)
			forbidden = forbidden || filtered
			if orig != nil && !filtered && st <= ex.IngestStamp && st < first {
				first, orig[ci] = st, vi
			}
		}
	}
	if !forbidden {
		p.Forbidden = nil
	}
	return p, ix, orig
}

// BuildProblem formulates the extraction ILP of §5.1 for an explored
// e-graph — costs from the model, one binary per e-node, filtered
// nodes forbidden, the input graph's selection as Problem.Start —
// without solving it. Exposed so callers can dump the model (lpfile),
// benchmark solvers against real instances, or hand it to an external
// process.
//
//lint:ctxflow-exempt bounded passes over the in-memory e-graph; no solving, no I/O
func BuildProblem(ex *rewrite.Explored, model cost.Model, opts ILPOptions) (*ilp.Problem, *ProblemIndex, error) {
	if !opts.CycleConstraints && !rewrite.IsAcyclic(ex.G, &ex.Filtered) {
		return nil, nil, fmt.Errorf("extract: e-graph has cycles; ILP without cycle constraints requires cycle filtering")
	}
	p, ix, orig := buildModel(ex, model)
	p.CycleConstraints = opts.CycleConstraints
	p.TopoMode = opts.TopoMode
	p.Timeout = opts.Timeout
	p.StallLimit = DefaultStallLimit

	// Start from the input graph, so the ILP result is never worse than
	// it however early the search is cut off. The solver adds the
	// greedy extraction itself.
	p.Start = orig
	return p, ix, nil
}

// ILPContext performs ILP extraction. When the exploration used cycle
// filtering the cycle constraints can be dropped, which is the paper's
// key scalability lever (Table 5); filtered nodes become x_i = 0.
// The branch-and-bound treats a done ctx like an expired deadline
// (best incumbent with Optimal=false); a cancellation that lands
// before any incumbent exists surfaces as the context's own error.
func ILPContext(ctx context.Context, ex *rewrite.Explored, model cost.Model, opts ILPOptions) (*Result, error) {
	start := time.Now()
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
	_, closure, err := p.Check(sol.NodeOf)
	if err != nil {
		return nil, fmt.Errorf("extract: ilp: %s solution rejected: %w", solver.Name(), err)
	}
	graph, err := ix.buildGraph(ex.G, ex.Root, closure)
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

// buildGraph materializes a selection the model has judged (problem
// class -> variable) into a tensor.Graph, verifying acyclicity of the
// chosen derivation as it goes.
func (ix *ProblemIndex) buildGraph(g *egraph.EGraph, root egraph.ClassID, nodeOf map[int]int) (*tensor.Graph, error) {
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
		vi, ok := nodeOf[ix.classIdx[id]]
		if !ok {
			return nil, fmt.Errorf("no node selected for class %d", id)
		}
		en := g.Node(ix.nodes[vi])
		tn := &tensor.Node{Op: tensor.Op(en.Op), Int: en.Int, Str: en.Str}
		args := make([]*tensor.Meta, len(en.Children))
		for i, ch := range en.Children {
			child, err := build(ch)
			if err != nil {
				return nil, err
			}
			tn.Inputs = append(tn.Inputs, child)
			args[i] = child.Meta
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
