package ilp

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// diamondProblem is the sharing diamond of TestSolveExploitsSharing.
func diamondProblem() *Problem {
	return &Problem{
		Costs:    []float64{1, 10, 70, 10, 70, 100},
		ClassOf:  []int{0, 1, 1, 2, 2, 3},
		Children: [][]int{{1, 2}, {3}, nil, {3}, nil, nil},
		Classes:  [][]int{{0}, {1, 2}, {3, 4}, {5}},
		Root:     0,
	}
}

// TestCheckRejectsBadSelections is the evaluator's table: every way a
// selection from outside the solver can be wrong is an error, and a
// sound one comes back with its DAG cost and its root closure only.
func TestCheckRejectsBadSelections(t *testing.T) {
	forbidden := diamondProblem()
	forbidden.Forbidden = []bool{false, true, false, false, false, false}
	infinite := diamondProblem()
	infinite.Costs[3] = math.Inf(1)
	uncycled := cyclicProblem()
	uncycled.CycleConstraints = false
	for _, tc := range []struct {
		name    string
		p       *Problem
		sel     map[int]int
		wantErr string // "" means accepted
		cost    float64
		closure int
	}{
		{name: "optimum", p: diamondProblem(), sel: map[int]int{0: 0, 1: 1, 2: 3, 3: 5}, cost: 121, closure: 4},
		{name: "don't-care class dropped", p: diamondProblem(), sel: map[int]int{0: 0, 1: 2, 2: 4, 3: 5}, cost: 141, closure: 3},
		{name: "missing class", p: diamondProblem(), sel: map[int]int{0: 0}, wantErr: "misses required class 1"},
		{name: "wrong class", p: diamondProblem(), sel: map[int]int{0: 0, 1: 3, 2: 3, 3: 5}, wantErr: "node 3 does not belong to class 1"},
		{name: "forbidden node", p: forbidden, sel: map[int]int{0: 0, 1: 1, 2: 3, 3: 5}, wantErr: "forbidden node 1"},
		{name: "infinite-cost node", p: infinite, sel: map[int]int{0: 0, 1: 1, 2: 3, 3: 5}, wantErr: "forbidden node 3"},
		{name: "forbidden node outside the closure", p: forbidden, sel: map[int]int{0: 0, 1: 2, 2: 4, 3: 5}, cost: 141, closure: 3},
		{name: "cyclic under cycle constraints", p: cyclicProblem(), sel: map[int]int{0: 0, 1: 2, 2: 4}, wantErr: "cyclic at class"},
		{name: "cyclic without cycle constraints", p: uncycled, sel: map[int]int{0: 0, 1: 2, 2: 4}, wantErr: "cyclic at class"},
		{name: "node index out of range", p: diamondProblem(), sel: map[int]int{0: 0, 1: 99}, wantErr: "outside the model"},
		{name: "class index out of range", p: diamondProblem(), sel: map[int]int{0: 0, 7: 1}, wantErr: "outside the model"},
	} {
		cost, closure, err := tc.p.Check(tc.sel)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || cost != tc.cost || len(closure) != tc.closure {
			t.Errorf("%s: cost %v closure %v err %v, want cost %v and %d classes", tc.name, cost, closure, err, tc.cost, tc.closure)
		}
	}
}

// TestTreeCostsIsTheGreedyObjective: shared classes are paid once per
// use, dead nodes do not count, an underivable class is infinite and
// unpicked, and the pick is the node that reached the cost first.
func TestTreeCostsIsTheGreedyObjective(t *testing.T) {
	p := diamondProblem()
	got, pick := p.TreeCosts(nil)
	for c, want := range []float64{1 + 70 + 70, 70, 70, 100} {
		if got[c] != want {
			t.Fatalf("class %d: tree cost %v, want %v (all: %v)", c, got[c], want, got)
		}
	}
	if !slices.Equal(pick, []int{0, 2, 4, 5}) {
		t.Fatalf("picks %v, want [0 2 4 5]", pick)
	}
	alive := []bool{true, true, false, true, true, false} // class 1's leaf and the shared class are gone
	got, pick = p.TreeCosts(alive)
	if !math.IsInf(got[3], 1) || !math.IsInf(got[1], 1) || got[2] != 70 || !math.IsInf(got[0], 1) {
		t.Fatalf("masked tree costs %v", got)
	}
	if !slices.Equal(pick, []int{-1, -1, 4, -1}) {
		t.Fatalf("masked picks %v, want [-1 -1 4 -1]", pick)
	}

	// A tie within one sweep: class 1's two nodes both cost 7 once class
	// 0 is priced, and the earlier variable keeps the class.
	tie := &Problem{
		Costs:    []float64{3, 4, 7, 1},
		ClassOf:  []int{0, 1, 1, 2},
		Children: [][]int{nil, {0}, nil, {1}},
		Classes:  [][]int{{0}, {1, 2}, {3}},
		Root:     2,
	}
	if got, pick := tie.TreeCosts(nil); got[1] != 7 || pick[1] != 1 {
		t.Fatalf("tie: class 1 cost %v pick %d, want 7 by node 1", got[1], pick[1])
	}
	// A tie across sweeps: node 1 reaches 110 only once the shared class
	// is priced, a sweep after leaf node 2 did, so node 2 keeps class 1.
	late := diamondProblem()
	late.Costs[2] = 110
	if got, pick := late.TreeCosts(nil); got[1] != 110 || pick[1] != 2 {
		t.Fatalf("late tie: class 1 cost %v pick %d, want 110 by node 2", got[1], pick[1])
	}
}
