package ilp

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// sharingProblem builds the k-way generalization of the sharing
// diamond: the root node (cost 1) needs classes D_1..D_k; each D_i
// chooses between u_i (cost 2, child S) and a private leaf (cost 3);
// S is a single leaf of cost 4. Greedy tree costs see u_i as 6 > 3 and
// pick every leaf (1+3k); the DAG optimum picks every u_i and pays S
// once (1+2k+4). The bound ignores the sharing, so branch-and-bound
// genuinely explores — a good stand-in for a hard merged e-graph.
func sharingProblem(k int) *Problem {
	p := &Problem{Root: 0}
	// class 0: root, single node with children 1..k.
	rootKids := make([]int, k)
	for i := range rootKids {
		rootKids[i] = i + 1
	}
	p.Costs = append(p.Costs, 1)
	p.ClassOf = append(p.ClassOf, 0)
	p.Children = append(p.Children, rootKids)
	p.Classes = append(p.Classes, []int{0})
	sClass := k + 1
	for i := 1; i <= k; i++ {
		u := len(p.Costs)
		p.Costs = append(p.Costs, 2, 3)
		p.ClassOf = append(p.ClassOf, i, i)
		p.Children = append(p.Children, []int{sClass}, nil)
		p.Classes = append(p.Classes, []int{u, u + 1})
	}
	s := len(p.Costs)
	p.Costs = append(p.Costs, 4)
	p.ClassOf = append(p.ClassOf, sClass)
	p.Children = append(p.Children, nil)
	p.Classes = append(p.Classes, []int{s})
	return p
}

// ringProblem is infeasible under cycle constraints and exponentially
// slow to refute: the root needs class C_0 of an m-class ring where
// every class offers a "+1 hop" and a "+2 hop" node (distinct children,
// so domination cannot collapse them). Every complete selection is a
// functional graph that must revisit a class, so no feasible solution
// exists, but the solver only discovers each contradiction at the
// assignment that closes the lap — 2^Ω(m) dead ends. No warm start
// exists (every greedy tree cost is infinite), so the search runs
// incumbent-free until canceled.
func ringProblem(m int) *Problem {
	p := &Problem{Root: 0, CycleConstraints: true}
	p.Costs = append(p.Costs, 1)
	p.ClassOf = append(p.ClassOf, 0)
	p.Children = append(p.Children, []int{1})
	p.Classes = append(p.Classes, []int{0})
	for i := 0; i < m; i++ {
		hop1 := 1 + (i+1)%m
		hop2 := 1 + (i+2)%m
		a := len(p.Costs)
		p.Costs = append(p.Costs, 1, 1)
		p.ClassOf = append(p.ClassOf, 1+i, 1+i)
		p.Children = append(p.Children, []int{hop1}, []int{hop2})
		p.Classes = append(p.Classes, []int{a, a + 1})
	}
	return p
}

// escapeRing is ringProblem plus one expensive leaf in C_0: the only
// feasible solutions take the leaf (cost 1+100), so the warm start is
// already optimal, but proving optimality means refuting the entire
// ring — an anytime search that runs essentially forever with a good
// incumbent in hand. Ideal for timeout/cancellation contracts.
func escapeRing(m int) *Problem {
	p := ringProblem(m)
	leaf := len(p.Costs)
	p.Costs = append(p.Costs, 100)
	p.ClassOf = append(p.ClassOf, 1)
	p.Children = append(p.Children, nil)
	p.Classes[1] = append(p.Classes[1], leaf)
	return p
}

func TestSharingProblemOptimum(t *testing.T) {
	const k = 14
	sol, err := Solve(sharingProblem(k))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(1 + 2*k + 4)
	if sol.Cost != want || !sol.Optimal {
		t.Fatalf("cost %v optimal %v, want %v true", sol.Cost, sol.Optimal, want)
	}
}

func TestParallelMatchesSequentialRandom(t *testing.T) {
	f := func(seed []uint8) bool {
		p := randomDAG(seed)
		seq, serr := Solve(p)
		par, perr := SolveParallel(p, 4)
		if serr != nil || perr != nil {
			return errors.Is(serr, ErrInfeasible) && errors.Is(perr, ErrInfeasible)
		}
		return math.Abs(seq.Cost-par.Cost) < 1e-6 && par.Optimal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSequentialCyclic(t *testing.T) {
	for _, mode := range []TopoMode{TopoReal, TopoInt} {
		p := cyclicProblem()
		p.TopoMode = mode
		sol, err := SolveParallel(p, 4)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if sol.Cost != 11 || isCyclic(p, sol.NodeOf) {
			t.Fatalf("%v: cost %v selection %+v", mode, sol.Cost, sol.NodeOf)
		}
	}
}

func TestParallelSharingOptimum(t *testing.T) {
	const k = 14
	sol, err := SolveParallel(sharingProblem(k), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(1 + 2*k + 4)
	if sol.Cost != want || !sol.Optimal {
		t.Fatalf("cost %v optimal %v, want %v true", sol.Cost, sol.Optimal, want)
	}
	if sol.Workers < 2 {
		t.Fatalf("expected a parallel solve, got %d workers", sol.Workers)
	}
}

// TestParallelDeterministicCost reruns the same parallel solve and
// requires identical costs: the shared-incumbent tie-break must make
// the answer independent of worker scheduling.
func TestParallelDeterministicCost(t *testing.T) {
	p := sharingProblem(12)
	first := -1.0
	for run := 0; run < 6; run++ {
		sol, err := SolveParallel(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = sol.Cost
		} else if sol.Cost != first {
			t.Fatalf("run %d cost %v != first run %v", run, sol.Cost, first)
		}
	}
}

// TestOfferTieBreak checks the deterministic tie-break directly: an
// equal-cost solution from an earlier unit replaces the incumbent,
// one from a later unit does not, and only strict improvements count
// as incumbents.
func TestOfferTieBreak(t *testing.T) {
	sh := &parallelShared{start: time.Now(), bestUnit: -1}
	sh.bestBits.Store(math.Float64bits(math.Inf(1)))
	if !sh.offer(10, []int{1, 2}, 5, 0) {
		t.Fatal("first solution rejected")
	}
	if sh.offer(10, []int{3, 4}, 7, 0) {
		t.Fatal("equal cost from a later unit accepted")
	}
	if !sh.offer(10, []int{5, 6}, 2, 0) {
		t.Fatal("equal cost from an earlier unit rejected")
	}
	if sh.bestUnit != 2 || sh.bestPick[0] != 5 {
		t.Fatalf("tie-break kept unit %d pick %v", sh.bestUnit, sh.bestPick)
	}
	if sh.incumbents != 1 {
		t.Fatalf("ties counted as incumbents: %d", sh.incumbents)
	}
	if !sh.offer(9, []int{7, 8}, 9, 0) || sh.incumbents != 2 {
		t.Fatal("strict improvement mishandled")
	}
}

// TestOnIncumbentMonotonic asserts the OnIncumbent contract for both
// solve modes: costs strictly decrease, starting from the warm seed.
func TestOnIncumbentMonotonic(t *testing.T) {
	for _, par := range []bool{false, true} {
		var mu sync.Mutex
		var costs []float64
		p := sharingProblem(12)
		p.OnIncumbent = func(cost float64, _ int64) {
			mu.Lock()
			costs = append(costs, cost)
			mu.Unlock()
		}
		var sol *Solution
		var err error
		if par {
			sol, err = SolveParallel(p, 4)
		} else {
			sol, err = Solve(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(costs) == 0 {
			t.Fatalf("parallel=%v: no incumbent callbacks", par)
		}
		for i := 1; i < len(costs); i++ {
			if costs[i] >= costs[i-1] {
				t.Fatalf("parallel=%v: incumbent costs not strictly decreasing: %v", par, costs)
			}
		}
		if costs[len(costs)-1] != sol.Cost {
			t.Fatalf("parallel=%v: last incumbent %v != solution cost %v", par, costs[len(costs)-1], sol.Cost)
		}
		if len(costs) != sol.Incumbents {
			t.Fatalf("parallel=%v: %d callbacks, Incumbents=%d", par, len(costs), sol.Incumbents)
		}
	}
}

// TestParallelCancelMidBranch cancels from inside the first incumbent
// callback of a search far too large to finish (2^40 assignments):
// the solve must return the incumbent with Canceled set rather than
// hang or error. Run under -race in CI, this also exercises the
// shared-incumbent synchronization.
func TestParallelCancelMidBranch(t *testing.T) {
	p := escapeRing(34)
	p.Timeout = 30 * time.Second // safety net if cancellation breaks
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.OnIncumbent = func(float64, int64) { cancel() }
	sol, err := SolveParallelContext(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NodeOf == nil || sol.Cost <= 0 {
		t.Fatalf("no incumbent returned: %+v", sol)
	}
	if !sol.Canceled || sol.Optimal {
		t.Fatalf("cancellation not reported: canceled=%v optimal=%v", sol.Canceled, sol.Optimal)
	}
}

// TestCanceledWithoutIncumbentReturnsContextError is the regression
// test for the unified cancellation path: a context that dies
// mid-search before any feasible solution exists must surface the
// context's own error, not ErrTimeout (which callers used to have to
// reverse-map onto a dead context).
func TestCanceledWithoutIncumbentReturnsContextError(t *testing.T) {
	for _, par := range []bool{false, true} {
		p := ringProblem(40)
		p.Timeout = 30 * time.Second // safety net if cancellation breaks
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		var err error
		if par {
			_, err = SolveParallelContext(ctx, p, 4)
		} else {
			_, err = SolveContext(ctx, p)
		}
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parallel=%v: err = %v, want the context error", par, err)
		}
		if errors.Is(err, ErrTimeout) {
			t.Fatalf("parallel=%v: cancellation still reported as ErrTimeout", par)
		}
	}
}

// TestTimeoutReturnsIncumbentNotError pins the anytime contract: with
// a warm-start incumbent present, an expired solver deadline returns
// the incumbent with Optimal=false and TimedOut=true, not an error.
func TestTimeoutReturnsIncumbentNotError(t *testing.T) {
	for _, par := range []bool{false, true} {
		p := escapeRing(26)
		p.Timeout = time.Nanosecond
		var sol *Solution
		var err error
		if par {
			sol, err = SolveParallel(p, 4)
		} else {
			sol, err = Solve(p)
		}
		if err != nil {
			t.Fatalf("parallel=%v: %v", par, err)
		}
		if !sol.TimedOut || sol.Optimal || sol.NodeOf == nil {
			t.Fatalf("parallel=%v: want incumbent with TimedOut: %+v", par, sol)
		}
	}
}

func TestParallelWorkersOneIsSequential(t *testing.T) {
	sol, err := SolveParallel(sharingProblem(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Workers != 1 || !sol.Optimal {
		t.Fatalf("workers=%d optimal=%v", sol.Workers, sol.Optimal)
	}
}
