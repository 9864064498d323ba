package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// oracleForced is the forced-choice test as the search ran it before
// pickClass kept track of what it had already scanned: every allowed
// node at the class minimum, every child.
func oracleForced(s *solver, c int) int {
	for _, i := range s.allowed[c] {
		if s.p.Costs[i] > s.minCost[c]+boundAdjust {
			continue
		}
		ok := true
		for _, h := range s.p.Children[i] {
			if s.chosen[h] < 0 && s.need[h] == 0 {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// oraclePick is the scanning pickClass: it tests every pending class
// afresh at every expansion.
func oraclePick(s *solver, pending []int) (idx, node int) {
	idx = -1
	fewest := math.MaxInt
	for i := len(pending) - 1; i >= 0; i-- {
		c := pending[i]
		if s.chosen[c] >= 0 {
			continue
		}
		if f := s.freePick[c]; f >= 0 {
			return i, f
		}
		if !s.p.CycleConstraints {
			if f := oracleForced(s, c); f >= 0 {
				return i, f
			}
		}
		if n := len(s.allowed[c]); n < fewest {
			fewest, idx = n, i
		}
	}
	return idx, -1
}

// testSolver prepares p without seeding it, so no bound prunes, and
// returns an empty incumbent for its workers.
func testSolver(t testing.TB, p *Problem) (*solver, *parallelShared) {
	t.Helper()
	master, err := prepare(context.Background(), p, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return master, newShared(time.Now(), nil)
}

type namedProblem struct {
	name string
	p    *Problem
}

// coreProblems are the shapes the search-core tests walk: random DAGs
// (forced choices and free picks in every mix), the sharing diamond
// (one decision makes every other class forced) and the escape ring
// (cycle constraints: forced choices off, candidates rejected).
func coreProblems() []namedProblem {
	intRing := escapeRing(7)
	intRing.TopoMode = TopoInt
	ps := []namedProblem{{"sharing", sharingProblem(7)}, {"escapeRing", escapeRing(9)}, {"escapeRingInt", intRing}}
	rng := rand.New(rand.NewSource(16))
	for k := 0; k < 40; k++ {
		seed := make([]uint8, 24)
		rng.Read(seed)
		ps = append(ps, namedProblem{fmt.Sprint("dag", k), randomDAG(seed)}, namedProblem{fmt.Sprint("wide", k), wideDAG(rng)})
	}
	return ps
}

// wideDAG builds a 24-40 class acyclic problem with two to four nodes
// a class, costs from a small set — so classes have several nodes at
// their minimum, and now and then a free one — and up to three
// children a node, shared freely: a class scanned without a forced
// choice often gains one when a later decision requires a child of its
// cheapest nodes.
func wideDAG(rng *rand.Rand) *Problem {
	m := 24 + rng.Intn(17)
	p := &Problem{Root: 0, Classes: make([][]int, m)}
	for c := 0; c < m; c++ {
		for k := 2 + rng.Intn(3); k > 0; k-- {
			var children []int
			for n := rng.Intn(4); n > 0 && c+1 < m; n-- {
				children = append(children, c+1+rng.Intn(m-c-1))
			}
			p.Classes[c] = append(p.Classes[c], len(p.Costs))
			p.Costs = append(p.Costs, float64((1+rng.Intn(8))/2))
			p.ClassOf = append(p.ClassOf, c)
			p.Children = append(p.Children, children)
		}
	}
	return p
}

// TestPickClassMatchesOracle drives the search's own steps (dropInto,
// applyStep, undoStep, the frames) over whole trees — no bound, so
// also the parts a real search prunes — and at every expansion asks
// pickClass and the scanning oracle the same question. It also checks
// what pickClass's shortcuts rest on: a decided class is a required
// one, and the pending list is exactly the required, undecided
// classes, so a class that just became required is one that was just
// appended.
func TestPickClassMatchesOracle(t *testing.T) {
	for _, np := range coreProblems() {
		name, p := np.name, np.p
		s, _ := testSolver(t, p)
		rng := rand.New(rand.NewSource(1))
		budget := 20000
		var walk func(depth int, pending []int, bound float64)
		walk = func(depth int, pending []int, bound float64) {
			if budget--; budget < 0 || t.Failed() {
				return
			}
			inPending := make(map[int]int)
			for _, c := range pending {
				inPending[c]++
			}
			for c := range s.need {
				if s.chosen[c] >= 0 && s.need[c] == 0 {
					t.Fatalf("%s: class %d is decided and not required", name, c)
				}
				if want := s.need[c] > 0 && s.chosen[c] < 0; (inPending[c] == 1) != want || inPending[c] > 1 {
					t.Fatalf("%s: class %d: need %d chosen %d, %d times pending", name, c, s.need[c], s.chosen[c], inPending[c])
				}
			}
			idx, node := s.pickClass(pending, s.frames[depth].lo, s.frames[depth].hi)
			if oi, on := oraclePick(s, pending); idx != oi || node != on {
				t.Fatalf("%s: depth %d pending %v known [%d,%d): pickClass (%d,%d), oracle (%d,%d)",
					name, depth, pending, s.frames[depth].lo, s.frames[depth].hi, idx, node, oi, on)
			}
			if idx < 0 {
				return
			}
			c := pending[idx]
			s.dropInto(depth+1, pending, idx, node >= 0)
			nodes := []int{node}
			if node < 0 {
				nodes = nodes[:0]
				for _, cd := range s.candidates(depth+1, c) {
					nodes = append(nodes, cd.node)
				}
				rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
			}
			for _, n := range nodes {
				if p.CycleConstraints && s.createsCycle(c, n) {
					continue
				}
				st := step{c, n}
				f := &s.frames[depth+1]
				next, nb := s.applyStep(st, f.pending[:f.hi], bound-s.minCost[c])
				f.pending = next
				walk(depth+1, next, nb)
				s.undoStep(st)
			}
		}
		s.need[p.Root] = 1
		s.frames[0] = frame{pending: []int{p.Root}}
		walk(0, s.frames[0].pending, s.minCost[p.Root])
		s.need[p.Root] = 0
		assertAtRest(t, name, s)
	}
}

// assertAtRest fails unless s holds the state of an empty assignment.
func assertAtRest(t *testing.T, name string, s *solver) {
	t.Helper()
	for c := range s.need {
		if s.need[c] != 0 || s.chosen[c] != -1 {
			t.Fatalf("%s: class %d left with need %d chosen %d", name, c, s.need[c], s.chosen[c])
		}
	}
	if s.acc != 0 || s.explored != 0 || s.lastImprove != 0 {
		t.Fatalf("%s: left with acc %v explored %d lastImprove %d", name, s.acc, s.explored, s.lastImprove)
	}
}

// TestUnitsLeaveWorkerAtRest: collecting units leaves the master at
// rest, and every unit leaves the worker that ran it at rest, whether
// its subtree held an improvement, a dead end or nothing.
func TestUnitsLeaveWorkerAtRest(t *testing.T) {
	for _, np := range coreProblems() {
		name, p := np.name, np.p
		master, sh := testSolver(t, p)
		units := master.collectUnits(8)
		assertAtRest(t, name, master)
		w := master.worker(sh)
		for i, u := range append(units, unit{}) {
			w.runUnit(u, i)
			assertAtRest(t, name, w)
		}
	}
}

// TestWarmWorkerAllocatesNothing: once a worker's frames have grown to
// the tree, searching it again touches the heap not at all.
func TestWarmWorkerAllocatesNothing(t *testing.T) {
	master, sh := testSolver(t, sharingProblem(12))
	w := master.worker(sh)
	w.runUnit(unit{}, 0)
	explored := sh.explored.Load()
	if allocs := testing.AllocsPerRun(20, func() { w.runUnit(unit{}, 0) }); allocs != 0 {
		t.Fatalf("a warmed worker allocates %v times per unit", allocs)
	}
	if sh.explored.Load() == explored {
		t.Fatal("the measured runs explored nothing")
	}
}

// twoUnitProblem has two root nodes, so two natural units: the first
// leads down a chain of single-node classes to the only solutions, the
// second into ringProblem's exponential dead end.
func twoUnitProblem(chain, ring int) (p *Problem, viaChain, viaRing unit) {
	p = ringProblem(ring)
	add := func(class int, cost float64, children ...int) int {
		i := len(p.Costs)
		p.Costs = append(p.Costs, cost)
		p.ClassOf = append(p.ClassOf, class)
		p.Children = append(p.Children, children)
		if class == len(p.Classes) {
			p.Classes = append(p.Classes, nil)
		}
		p.Classes[class] = append(p.Classes[class], i)
		return i
	}
	first := len(p.Classes)
	rootToChain := add(p.Root, 1, first)
	for k := 0; k < chain; k++ {
		if k+1 < chain {
			add(first+k, 100, first+k+1)
		} else {
			add(first+k, 100)
		}
	}
	return p, unit{steps: []step{{p.Root, rootToChain}}}, unit{steps: []step{{p.Root, p.Classes[p.Root][0]}}}
}

// TestStallBudgetStartsOverPerUnit: a unit that improved the incumbent
// at expansion k must not lend k expansions to the next unit's stall
// budget. The unit after it stalls exactly where it does on a worker
// that ran nothing before.
func TestStallBudgetStartsOverPerUnit(t *testing.T) {
	const chain, limit = 60, 2000
	p, viaChain, viaRing := twoUnitProblem(chain, 30)
	p.StallLimit = limit
	master, sh := testSolver(t, p)

	used := master.worker(sh)
	used.runUnit(viaChain, 0)
	if sh.incumbents != 1 || sh.explored.Load() < chain {
		t.Fatalf("first unit: %d incumbents after %d expansions, want 1 after at least %d", sh.incumbents, sh.explored.Load(), chain)
	}
	before := sh.explored.Load()
	used.runUnit(viaRing, 1)
	got := sh.explored.Load() - before

	fresh := master.worker(sh)
	before = sh.explored.Load()
	fresh.runUnit(viaRing, 1)
	want := sh.explored.Load() - before

	if !used.stalled || !fresh.stalled {
		t.Fatalf("stalled: used %v fresh %v, want both", used.stalled, fresh.stalled)
	}
	if got != want || want <= limit {
		t.Fatalf("second unit took %d expansions on the used worker, %d on a fresh one (limit %d)", got, want, limit)
	}
}

// TestUnreplayablePrefixPanics: a unit whose prefix names a class that
// is not pending was never searched, and must not pass for searched.
// The panic comes out of the driver on the goroutine that called it,
// where a caller can recover it, after the other units were searched.
func TestUnreplayablePrefixPanics(t *testing.T) {
	p := sharingProblem(3)
	master, sh := testSolver(t, p)
	pool := []*solver{master.worker(sh), master.worker(sh)}
	defer func() {
		if recover() == nil {
			t.Fatal("a prefix that does not replay was skipped silently")
		}
		if sh.incumbents == 0 {
			t.Fatal("the sound unit was not searched")
		}
	}()
	searchUnits(pool, []unit{{steps: []step{{class: 2, node: p.Classes[2][0]}}}, {}})
}
