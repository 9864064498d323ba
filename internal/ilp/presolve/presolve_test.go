package presolve

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"tensat/internal/ilp"
)

// diamond is the sharing problem from the solver tests: root needs A
// and B, both can reuse shared class S or take private leaves.
func diamond() *ilp.Problem {
	return &ilp.Problem{
		Costs:    []float64{1, 10, 70, 10, 70, 100},
		ClassOf:  []int{0, 1, 1, 2, 2, 3},
		Children: [][]int{{1, 2}, {3}, nil, {3}, nil, nil},
		Classes:  [][]int{{0}, {1, 2}, {3, 4}, {5}},
		Root:     0,
	}
}

func TestUnreachableClassDropped(t *testing.T) {
	p := diamond()
	// Add a class nothing points at, with two nodes.
	p.Costs = append(p.Costs, 5, 6)
	p.ClassOf = append(p.ClassOf, 4, 4)
	p.Children = append(p.Children, nil, nil)
	p.Classes = append(p.Classes, []int{6, 7})

	q, red, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Forbidden[6] || !q.Forbidden[7] {
		t.Fatalf("unreachable nodes survived: %v", q.Forbidden)
	}
	if red.NodesDropped < 2 {
		t.Fatalf("reduction %+v did not count the unreachable nodes", red)
	}
	if p.Forbidden != nil {
		t.Fatal("input problem mutated")
	}
}

func TestCostDominationBeatsSubsetRule(t *testing.T) {
	// Class 1: node a (cost 10, leaf) vs node b (cost 2, child class 2
	// whose only node costs 3). b's children are not a subset of a's,
	// but 2 + 3 < 10, so cost domination drops a.
	p := &ilp.Problem{
		Costs:    []float64{1, 10, 2, 3},
		ClassOf:  []int{0, 1, 1, 2},
		Children: [][]int{{1}, nil, {2}, nil},
		Classes:  [][]int{{0}, {1, 2}, {3}},
		Root:     0,
	}
	q, red, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Forbidden[1] {
		t.Fatal("cost-dominated node survived")
	}
	// Every class now has one candidate and all are required.
	if red.VarsFixed != 3 {
		t.Fatalf("VarsFixed = %d, want 3 (%+v)", red.VarsFixed, red)
	}
	sol, err := ilp.SolveParallelContext(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 6 {
		t.Fatalf("reduced model cost %v, want 6", sol.Cost)
	}
}

func TestCostDominationDisabledUnderCycleConstraints(t *testing.T) {
	p := &ilp.Problem{
		Costs:            []float64{1, 10, 2, 3},
		ClassOf:          []int{0, 1, 1, 2},
		Children:         [][]int{{1}, nil, {2}, nil},
		Classes:          [][]int{{0}, {1, 2}, {3}},
		Root:             0,
		CycleConstraints: true,
	}
	q, red, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if q.Forbidden[1] {
		t.Fatal("cost domination must not add edges under cycle constraints")
	}
	// The possible-edge graph is acyclic, so the constraints are vacuous.
	if !red.CycleCleared || q.CycleConstraints {
		t.Fatalf("acyclic model kept its cycle constraints: %+v", red)
	}
}

func TestCycleConstraintsKeptWhenCyclePossible(t *testing.T) {
	p := &ilp.Problem{
		// Figure 3 shape: a2 and b2 can form a 2-cycle.
		Costs:            []float64{1, 10, 0, 10, 0},
		ClassOf:          []int{0, 1, 1, 2, 2},
		Children:         [][]int{{1, 2}, nil, {2}, nil, {1}},
		Classes:          [][]int{{0}, {1, 2}, {3, 4}},
		Root:             0,
		CycleConstraints: true,
	}
	q, red, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !q.CycleConstraints || red.CycleCleared {
		t.Fatal("cycle constraints dropped although a cycle is possible")
	}
	// The leaf edges (root->A, root->B) still cross SCCs and are counted.
	if red.ConstraintsRemoved == 0 {
		t.Fatalf("no vacuous rows found: %+v", red)
	}
	sol, err := ilp.SolveParallelContext(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 11 {
		t.Fatalf("reduced cyclic model cost %v, want 11", sol.Cost)
	}
}

func TestEmptyChildClassPropagates(t *testing.T) {
	// Class 2's only node is forbidden, so class 1's node b (child 2)
	// dies too, fixing class 1 to node a.
	p := &ilp.Problem{
		Costs:     []float64{1, 10, 2, 3},
		ClassOf:   []int{0, 1, 1, 2},
		Children:  [][]int{{1}, nil, {2}, nil},
		Classes:   [][]int{{0}, {1, 2}, {3}},
		Root:      0,
		Forbidden: []bool{false, false, false, true},
	}
	q, red, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Forbidden[2] {
		t.Fatal("node with an empty child class survived")
	}
	if red.Iterations < 2 {
		t.Fatalf("propagation needs a second round, got %+v", red)
	}
	sol, err := ilp.SolveParallelContext(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 11 {
		t.Fatalf("cost %v, want 11", sol.Cost)
	}
}

func TestReductionRatio(t *testing.T) {
	var r Reduction
	if r.Ratio() != 0 {
		t.Fatal("empty reduction ratio")
	}
	r = Reduction{NodesBefore: 8, NodesDropped: 2}
	if r.Ratio() != 0.25 {
		t.Fatalf("ratio %v", r.Ratio())
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Run(ctx, diamond()); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// TestPresolvePreservesOptimum is the exactness guarantee: on random
// DAGs the reduced model must have the same optimal cost as the
// original, and never forbid every optimal solution.
func TestPresolvePreservesOptimum(t *testing.T) {
	f := func(seed []uint8) bool {
		p := randomDAG(seed)
		orig, err := ilp.SolveParallelContext(context.Background(), p, 1)
		if err != nil {
			return true // infeasible inputs are out of scope here
		}
		q, red, err := Run(context.Background(), p)
		if err != nil {
			return false
		}
		reduced, err := ilp.SolveParallelContext(context.Background(), q, 1)
		if err != nil {
			return false
		}
		if red.NodesAfter+red.NodesDropped != red.NodesBefore {
			return false
		}
		return math.Abs(orig.Cost-reduced.Cost) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomDAG mirrors the solver test generator: children always point
// at higher-numbered classes.
func randomDAG(seed []uint8) *ilp.Problem {
	get := func(i int) int {
		if len(seed) == 0 {
			return 1
		}
		return int(seed[i%len(seed)])
	}
	m := 4 + get(0)%3
	p := &ilp.Problem{Root: 0}
	idx := 0
	for c := 0; c < m; c++ {
		nNodes := 1 + get(c+1)%3
		var members []int
		for k := 0; k < nNodes; k++ {
			cost := float64(1 + get(idx+2)%20)
			var children []int
			if c+1 < m && get(idx+3)%3 > 0 {
				children = append(children, c+1+get(idx+4)%(m-c-1))
			}
			if c+2 < m && get(idx+5)%4 == 0 {
				children = append(children, c+2+get(idx+6)%(m-c-2))
			}
			p.Costs = append(p.Costs, cost)
			p.ClassOf = append(p.ClassOf, c)
			p.Children = append(p.Children, children)
			members = append(members, idx)
			idx++
		}
		p.Classes = append(p.Classes, members)
	}
	return p
}
