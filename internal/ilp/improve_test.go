package ilp

import (
	"context"
	"math"
	"testing"
	"time"
)

// figure2Problem models the merged-matmul economics:
//
//	class 0 root: one node needing classes 1 and 2 (the two outputs)
//	class 1: matmul a (cost 8.4) | split0 -> class 3 (cost 0)
//	class 2: matmul b (cost 8.4) | split1 -> class 3 (cost 0)
//	class 3: split tuple: one node (cost 0) -> class 4
//	class 4: merged matmul (cost 8.8), leaf
//
// Greedy picks the two matmuls (16.8); optimum shares class 4 (8.8).
func figure2Problem() *Problem {
	return &Problem{
		//        0    1     2    3     4    5     6
		Costs:    []float64{0, 8.4, 0, 8.4, 0, 0, 8.8},
		ClassOf:  []int{0, 1, 1, 2, 2, 3, 4},
		Children: [][]int{{1, 2}, nil, {3}, nil, {3}, {4}, nil},
		Classes:  [][]int{{0}, {1, 2}, {3, 4}, {5}, {6}},
		Root:     0,
	}
}

func newSolverForTest(t *testing.T, p *Problem) *solver {
	t.Helper()
	s, err := prepare(context.Background(), p, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSeedIncumbentIsGreedy: the seed starts from the greedy pick
// (16.8) and refines it to the joint switch.
func TestSeedIncumbentIsGreedy(t *testing.T) {
	s := newSolverForTest(t, figure2Problem())
	if seedCost := s.seed(); seedCost != 16.8 {
		t.Fatalf("greedy seed cost %v, want 16.8", seedCost)
	}
	if math.Abs(s.best-8.8) > 1e-9 {
		t.Fatalf("seed incumbent %v, want 8.8", s.best)
	}
}

func TestImproveIncumbentFindsJointSwitch(t *testing.T) {
	s := newSolverForTest(t, figure2Problem())
	_, cost := s.improveFrom(s.treePick)
	if math.Abs(cost-8.8) > 1e-9 {
		t.Fatalf("improved cost %v, want 8.8 (joint switch to shared merged matmul)", cost)
	}
}

func TestSolveFindsJointSwitch(t *testing.T) {
	sol, err := SolveParallelContext(context.Background(), figure2Problem(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-8.8) > 1e-9 {
		t.Fatalf("cost %v, want 8.8", sol.Cost)
	}
}
