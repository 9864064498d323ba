// Package presolve reduces extraction ILP models before any solve.
//
// Real MIP solvers spend a large fraction of their win in presolve —
// fixing variables the constraints already decide, deleting dominated
// columns, and discarding constraints that cannot bind. The extraction
// ILP has enough structure (one-node-per-required-class semantics, a
// root closure, monotone costs) that the same ideas apply with exact,
// purely combinatorial rules:
//
//   - unreachable elimination: a node in a class the root can never
//     require is fixed to zero;
//   - infeasibility propagation: a node with a child class that has no
//     surviving candidates can never satisfy its implication row;
//   - iterated domination: within a class, a node whose cost is no
//     lower and whose children are a superset of a sibling's is never
//     needed (run to fixpoint so each deletion can enable the next; the
//     solver has no domination rule of its own);
//   - cost domination: without cycle constraints, sibling j beats i
//     outright when cost_j plus a tree-cost upper bound on j's extra
//     children is below cost_i — dependency-aware reasoning the
//     subset rule cannot see;
//   - forced fixing: a required class with one surviving node has its
//     variable fixed to one, which recursively requires its children;
//   - cycle-constraint vacuity: topological-order rows whose edge can
//     never lie on a cycle of the possible-edge graph (SCC analysis)
//     are dropped; when none survive the whole acyclicity side of the
//     model is removed.
//
// All reductions are expressed through the Forbidden mask of a cloned
// Problem, so node and class indexing — and therefore solution mapping,
// warm starts, and LP-file naming — are unchanged.
package presolve

import (
	"context"

	"tensat/internal/ilp"
)

// Reduction reports what presolve removed, for traces and /metrics.
type Reduction struct {
	// Iterations is how many fixpoint rounds ran (at least 1).
	Iterations int `json:"iterations"`
	// VarsFixed counts variables decided outright: nodes of required
	// classes with a single surviving candidate (fixed to 1).
	VarsFixed int `json:"vars_fixed"`
	// NodesDropped counts node variables fixed to 0 (unreachable,
	// infeasible, or dominated).
	NodesDropped int `json:"nodes_dropped"`
	// ConstraintsRemoved counts dropped rows: the children-implication
	// rows of dropped nodes plus vacuous topological-order rows.
	ConstraintsRemoved int `json:"constraints_removed"`
	// CycleCleared is true when every acyclicity constraint proved
	// vacuous and the reduced model solves cycle-free.
	CycleCleared bool `json:"cycle_cleared,omitempty"`
	// NodesBefore/NodesAfter are the candidate-variable counts around
	// the pass (excluding anything the input already forbade).
	NodesBefore int `json:"nodes_before"`
	NodesAfter  int `json:"nodes_after"`
}

// Ratio is the fraction of candidate variables presolve eliminated.
func (r Reduction) Ratio() float64 {
	if r.NodesBefore == 0 {
		return 0
	}
	return float64(r.NodesDropped) / float64(r.NodesBefore)
}

// maxIterations caps the fixpoint defensively; each round must drop at
// least one node to continue, so the bound is never reached in practice.
const maxIterations = 64

// Run reduces p and returns a cloned, equivalent problem: any optimal
// solution of the reduction is optimal for p (over the root closure).
// The input is never mutated. Run is exact — it never cuts all optimal
// solutions — and respects ctx between fixpoint rounds.
func Run(ctx context.Context, p *ilp.Problem) (*ilp.Problem, Reduction, error) {
	var red Reduction
	if err := p.Validate(); err != nil {
		return nil, red, err
	}
	n := len(p.Costs)
	m := len(p.Classes)

	alive := make([]bool, n)
	for i := 0; i < n; i++ {
		alive[i] = p.Allowed(i)
		if alive[i] {
			red.NodesBefore++
		}
	}
	aliveCount := func(class int) int {
		k := 0
		for _, i := range p.Classes[class] {
			if alive[i] {
				k++
			}
		}
		return k
	}

	kill := func(i int) {
		alive[i] = false
		red.NodesDropped++
		red.ConstraintsRemoved += len(p.Children[i])
	}

	reachable := make([]bool, m)
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, red, err
		}
		red.Iterations = round + 1
		changed := false

		// Reachability from the root through surviving nodes: a class no
		// surviving selection can require contributes no variables.
		for c := range reachable {
			reachable[c] = false
		}
		stack := []int{p.Root}
		reachable[p.Root] = true
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, i := range p.Classes[c] {
				if !alive[i] {
					continue
				}
				for _, h := range p.Children[i] {
					if !reachable[h] {
						reachable[h] = true
						stack = append(stack, h)
					}
				}
			}
		}
		for c := 0; c < m; c++ {
			if reachable[c] {
				continue
			}
			for _, i := range p.Classes[c] {
				if alive[i] {
					kill(i)
					changed = true
				}
			}
		}

		// Infeasibility propagation: a node needing an empty class can
		// never satisfy its implication constraints.
		for i := 0; i < n; i++ {
			if !alive[i] || !reachable[p.ClassOf[i]] {
				continue
			}
			for _, h := range p.Children[i] {
				if aliveCount(h) == 0 {
					kill(i)
					changed = true
					break
				}
			}
		}

		// Tree-cost upper bounds for the dependency-aware domination:
		// upper[c] bounds the cost of adding class c's closure to any
		// solution (fixpoint over surviving nodes).
		upper, _ := p.TreeCosts(alive)

		// Iterated domination inside each reachable class.
		for c := 0; c < m; c++ {
			if !reachable[c] || aliveCount(c) < 2 {
				continue
			}
			if dominate(p, alive, upper, c, kill) {
				changed = true
			}
		}

		if !changed || round+1 >= maxIterations {
			break
		}
	}

	// Forced fixing: walk the required closure — the root plus,
	// recursively, every child of a required class's only surviving
	// node. Each single-candidate class on that walk is a variable
	// fixed to one.
	required := make([]bool, m)
	stack := []int{p.Root}
	required[p.Root] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		only := -1
		for _, i := range p.Classes[c] {
			if alive[i] {
				if only >= 0 {
					only = -1
					break
				}
				only = i
			}
		}
		if only < 0 {
			continue
		}
		red.VarsFixed++
		for _, h := range p.Children[only] {
			if !required[h] {
				required[h] = true
				stack = append(stack, h)
			}
		}
	}

	q := p.Clone()
	forbidden := make([]bool, n)
	for i := 0; i < n; i++ {
		forbidden[i] = !alive[i]
	}
	q.Forbidden = forbidden

	if p.CycleConstraints {
		removed, total := vacuousCycleRows(p, alive)
		red.ConstraintsRemoved += removed
		if removed == total {
			q.CycleConstraints = false
			red.CycleCleared = true
		}
	}

	for i := 0; i < n; i++ {
		if alive[i] {
			red.NodesAfter++
		}
	}
	return q, red, nil
}

// dominate applies both domination rules within class c and reports
// whether anything was dropped. Ties are broken by member position so
// equal nodes cannot eliminate each other.
func dominate(p *ilp.Problem, alive []bool, upper []float64, c int, kill func(int)) bool {
	members := p.Classes[c]
	dropped := false
	for ki, i := range members {
		if !alive[i] {
			continue
		}
		for kj, j := range members {
			if ki == kj || !alive[j] {
				continue
			}
			if dominates(p, upper, j, i, kj < ki) {
				kill(i)
				dropped = true
				break
			}
		}
	}
	return dropped
}

// dominates reports whether picking j instead of i never costs more:
// either j's children are a subset of i's at no higher cost (always
// safe, even with cycle constraints — a subset of edges cannot close a
// cycle the superset avoids), or, when cycle constraints are off, j's
// cost plus tree-cost upper bounds for its extra children undercuts i
// outright. jFirst breaks exact ties. Neither rule can hold when j
// costs more, so that is tested before either child list is walked.
func dominates(p *ilp.Problem, upper []float64, j, i int, jFirst bool) bool {
	ci, cj := p.Costs[i], p.Costs[j]
	if cj > ci {
		return false
	}
	extra := 0.0
	subset := true
	for _, h := range p.Children[j] {
		found := false
		for _, h2 := range p.Children[i] {
			if h2 == h {
				found = true
				break
			}
		}
		if !found {
			subset = false
			extra += upper[h]
		}
	}
	if subset {
		if cj < ci {
			return true
		}
		return cj == ci && jFirst
	}
	if p.CycleConstraints {
		return false // extra edges could close a cycle i avoids
	}
	// Strict inequality: with equality both directions could hold and
	// eliminate each other.
	return cj+extra < ci
}

// vacuousCycleRows counts the topological-order rows of the surviving
// model and how many can never bind: a row for edge (node i, child h)
// binds only if the edge can lie on a cycle, i.e. g(i) and h are in
// the same strongly connected component of the possible-edge graph.
func vacuousCycleRows(p *ilp.Problem, alive []bool) (removed, total int) {
	m := len(p.Classes)
	adj := make([][]int, m)
	for i, hs := range p.Children {
		if !alive[i] {
			continue
		}
		adj[p.ClassOf[i]] = append(adj[p.ClassOf[i]], hs...)
	}
	comp := scc(m, adj)
	for i, hs := range p.Children {
		if !alive[i] {
			continue
		}
		for _, h := range hs {
			total++
			if comp[p.ClassOf[i]] != comp[h] {
				removed++
			}
		}
	}
	return removed, total
}

// scc labels each vertex with its strongly connected component using
// Tarjan's algorithm (iterative, so deep models cannot overflow the
// stack).
func scc(n int, adj [][]int) []int {
	comp := make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for v := range index {
		index[v] = -1
		comp[v] = -1
	}
	var stack []int
	next := 0
	comps := 0

	type frame struct{ v, ei int }
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] < 0 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if pv := frames[len(frames)-1].v; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = comps
					if w == v {
						break
					}
				}
				comps++
			}
		}
	}
	return comp
}
