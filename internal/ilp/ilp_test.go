package ilp

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// chain builds a problem where class 0 needs class 1 needs class 2 ...
// and each class has two nodes with the given costs; node 0 of class c
// points at class c+1, node 1 is a leaf.
func chain(costs [][2]float64) *Problem {
	p := &Problem{Root: 0}
	for c := range costs {
		var members []int
		for k := 0; k < 2; k++ {
			i := len(p.Costs)
			p.Costs = append(p.Costs, costs[c][k])
			p.ClassOf = append(p.ClassOf, c)
			if k == 0 && c+1 < len(costs) {
				p.Children = append(p.Children, []int{c + 1})
			} else {
				p.Children = append(p.Children, nil)
			}
			members = append(members, i)
		}
		p.Classes = append(p.Classes, members)
	}
	return p
}

func TestSolveSingleClass(t *testing.T) {
	p := &Problem{
		Costs:    []float64{5, 3},
		ClassOf:  []int{0, 0},
		Children: [][]int{nil, nil},
		Classes:  [][]int{{0, 1}},
		Root:     0,
	}
	sol, err := SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 3 || sol.NodeOf[0] != 1 || !sol.Optimal {
		t.Fatalf("solution %+v", sol)
	}
}

func TestSolvePrefersCheapSubtree(t *testing.T) {
	// Root node A costs 1 but requires an expensive chain; node B costs
	// 4 and is a leaf. Total via A = 1+10 = 11 > 4.
	p := chain([][2]float64{{1, 4}, {10, 10}})
	sol, err := SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 4 {
		t.Fatalf("cost %v, want 4", sol.Cost)
	}
}

func TestSolveExploitsSharing(t *testing.T) {
	// Diamond: root has one node needing classes A and B; both A and B
	// have a node needing shared class S (cost 100) and a private leaf
	// (cost 70). Greedy tree costs see A=110 vs 70, picking the leaves
	// (1+70+70=141); the DAG optimum picks S once: 1+10+10+100 = 121.
	p := &Problem{
		// node 0: root {A,B}; node 1: A->S cost 10; node 2: A leaf 70;
		// node 3: B->S cost 10; node 4: B leaf 70; node 5: S cost 100.
		Costs:    []float64{1, 10, 70, 10, 70, 100},
		ClassOf:  []int{0, 1, 1, 2, 2, 3},
		Children: [][]int{{1, 2}, {3}, nil, {3}, nil, nil},
		Classes:  [][]int{{0}, {1, 2}, {3, 4}, {5}},
		Root:     0,
	}
	sol, err := SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 121 {
		t.Fatalf("cost %v, want 121 (sharing-aware optimum)", sol.Cost)
	}
	if sol.NodeOf[1] != 1 || sol.NodeOf[2] != 3 {
		t.Fatalf("selection %+v did not share class 3", sol.NodeOf)
	}
}

func TestForbiddenNodesExcluded(t *testing.T) {
	p := &Problem{
		Costs:     []float64{1, 5},
		ClassOf:   []int{0, 0},
		Children:  [][]int{nil, nil},
		Classes:   [][]int{{0, 1}},
		Root:      0,
		Forbidden: []bool{true, false},
	}
	sol, err := SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NodeOf[0] != 1 || sol.Cost != 5 {
		t.Fatalf("forbidden node selected: %+v", sol)
	}
}

func TestInfeasibleAllForbidden(t *testing.T) {
	p := &Problem{
		Costs:     []float64{1},
		ClassOf:   []int{0},
		Children:  [][]int{nil},
		Classes:   [][]int{{0}},
		Root:      0,
		Forbidden: []bool{true},
	}
	if _, err := SolveParallelContext(context.Background(), p, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// cyclicProblem mirrors Figure 3: class 0 (root) has a single node
// needing classes A and B. A has nodes a1 (leaf, cost 10) and a2
// (cost 0, child B). B has nodes b1 (leaf, cost 10) and b2 (cost 0,
// child A). Choosing a2 and b2 is the cheapest assignment but cyclic.
func cyclicProblem() *Problem {
	return &Problem{
		// 0: root{A,B} cost 1; 1: a1 leaf 10; 2: a2 ->B 0;
		// 3: b1 leaf 10; 4: b2 ->A 0.
		Costs:            []float64{1, 10, 0, 10, 0},
		ClassOf:          []int{0, 1, 1, 2, 2},
		Children:         [][]int{{1, 2}, nil, {2}, nil, {1}},
		Classes:          [][]int{{0}, {1, 2}, {3, 4}},
		Root:             0,
		CycleConstraints: true,
	}
}

func TestCycleConstraintsBlockCyclicSelection(t *testing.T) {
	for _, mode := range []TopoMode{TopoReal, TopoInt} {
		p := cyclicProblem()
		p.TopoMode = mode
		sol, err := SolveParallelContext(context.Background(), p, 1)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Optimum is one leaf (10) plus one zero-cost reuse: 1+10+0 = 11.
		if sol.Cost != 11 {
			t.Fatalf("%v: cost %v, want 11", mode, sol.Cost)
		}
		// Verify acyclicity of the selection.
		if isCyclic(p, sol.NodeOf) {
			t.Fatalf("%v: cyclic selection %+v", mode, sol.NodeOf)
		}
	}
}

func TestWithoutCycleConstraintsCyclicGraphMaySelectCycle(t *testing.T) {
	p := cyclicProblem()
	p.CycleConstraints = false
	sol, err := SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained optimum picks both zero-cost nodes: cost 1, cyclic.
	if sol.Cost != 1 {
		t.Fatalf("cost %v, want 1 for the unconstrained relaxation", sol.Cost)
	}
	if !isCyclic(p, sol.NodeOf) {
		t.Fatal("expected the relaxation to pick the cyclic selection")
	}
}

func isCyclic(p *Problem, sel map[int]int) bool {
	state := map[int]int{}
	var dfs func(c int) bool
	dfs = func(c int) bool {
		if state[c] == 1 {
			return true
		}
		if state[c] == 2 {
			return false
		}
		state[c] = 1
		if n, ok := sel[c]; ok {
			for _, h := range p.Children[n] {
				if dfs(h) {
					return true
				}
			}
		}
		state[c] = 2
		return false
	}
	return dfs(p.Root)
}

func TestTimeoutReturnsIncumbentOrError(t *testing.T) {
	// A problem big enough that a zero deadline trips immediately.
	costs := make([][2]float64, 18)
	for i := range costs {
		costs[i] = [2]float64{1, 2}
	}
	p := chain(costs)
	p.Timeout = time.Nanosecond
	sol, err := SolveParallelContext(context.Background(), p, 1)
	if err != nil {
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("unexpected error %v", err)
		}
		return
	}
	if sol.Optimal && sol.TimedOut {
		t.Fatalf("contradictory flags %+v", sol)
	}
}

func TestValidateRejectsBadProblems(t *testing.T) {
	bad := &Problem{Costs: []float64{1}, ClassOf: []int{0}, Children: [][]int{nil}, Classes: [][]int{{0}}, Root: 5}
	if _, err := SolveParallelContext(context.Background(), bad, 1); err == nil {
		t.Fatal("bad root accepted")
	}
	bad2 := &Problem{Costs: []float64{1}, ClassOf: []int{9}, Children: [][]int{nil}, Classes: [][]int{{0}}, Root: 0}
	if _, err := SolveParallelContext(context.Background(), bad2, 1); err == nil {
		t.Fatal("bad class accepted")
	}
	bad3 := &Problem{Costs: []float64{1}, ClassOf: []int{0}, Children: [][]int{{7}}, Classes: [][]int{{0}}, Root: 0}
	if _, err := SolveParallelContext(context.Background(), bad3, 1); err == nil {
		t.Fatal("bad child accepted")
	}
}

// TestRandomDAGOptimality cross-checks branch-and-bound against brute
// force on small random acyclic problems.
func TestRandomDAGOptimality(t *testing.T) {
	f := func(seed []uint8) bool {
		p := randomDAG(seed)
		sol, err := SolveParallelContext(context.Background(), p, 1)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		want := bruteForce(p)
		return math.Abs(sol.Cost-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomDAG builds a 4-6 class problem whose node children always point
// at higher-numbered classes (guaranteeing acyclicity).
func randomDAG(seed []uint8) *Problem {
	get := func(i int) int {
		if len(seed) == 0 {
			return 1
		}
		return int(seed[i%len(seed)])
	}
	m := 4 + get(0)%3
	p := &Problem{Root: 0}
	idx := 0
	for c := 0; c < m; c++ {
		nNodes := 1 + get(c+1)%2
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

// bruteForce enumerates every selection (one node per class) and
// returns the minimum cost over distinct classes reachable from root.
func bruteForce(p *Problem) float64 {
	m := len(p.Classes)
	choice := make([]int, m)
	best := math.Inf(1)
	var rec func(c int)
	rec = func(c int) {
		if c == m {
			// Compute the cost of classes reachable from root.
			seen := make(map[int]bool)
			total := 0.0
			var visit func(cls int)
			visit = func(cls int) {
				if seen[cls] {
					return
				}
				seen[cls] = true
				n := choice[cls]
				total += p.Costs[n]
				for _, h := range p.Children[n] {
					visit(h)
				}
			}
			visit(p.Root)
			if total < best {
				best = total
			}
			return
		}
		for _, n := range p.Classes[c] {
			choice[c] = n
			rec(c + 1)
		}
	}
	rec(0)
	return best
}
