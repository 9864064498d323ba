package ilp

import (
	"math"
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
// use, dead nodes do not count, and an underivable class is infinite.
func TestTreeCostsIsTheGreedyObjective(t *testing.T) {
	p := diamondProblem()
	got := p.TreeCosts(nil)
	for c, want := range []float64{1 + 70 + 70, 70, 70, 100} {
		if got[c] != want {
			t.Fatalf("class %d: tree cost %v, want %v (all: %v)", c, got[c], want, got)
		}
	}
	alive := []bool{true, true, false, true, true, false} // class 1's leaf and the shared class are gone
	got = p.TreeCosts(alive)
	if !math.IsInf(got[3], 1) || !math.IsInf(got[1], 1) || got[2] != 70 || !math.IsInf(got[0], 1) {
		t.Fatalf("masked tree costs %v", got)
	}
}
