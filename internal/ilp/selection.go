package ilp

import (
	"fmt"
	"math"
)

// Allowed reports whether node i may appear in a solution: it is not
// on the Forbidden list and its cost is finite. Infinite-cost nodes
// (ill-typed under the cost model) can never appear in a finite
// solution, and admitting them would poison the bound arithmetic
// (Inf - Inf = NaN).
func (p *Problem) Allowed(i int) bool {
	return (p.Forbidden == nil || !p.Forbidden[i]) && !math.IsInf(p.Costs[i], 1)
}

// TreeCosts returns, per class, the least tree cost over the alive
// nodes (nil: every Allowed node) — the greedy extractor's objective,
// which pays a shared subgraph once per use — and the node that reached
// it (-1 where it is infinite): the greedy extraction itself, and the
// builtin solver's first start. Sweeps visit nodes in variable order
// and only a strictly lower cost replaces a pick, so of two nodes
// reaching the same cost in one sweep the lower variable keeps the
// class, and one that reaches it in a later sweep never takes it: a
// later equal pick could close a zero-cost cycle, the first one cannot.
// The cost is an upper bound on the DAG cost of adding the class's
// closure to any selection, and infinite when the class has no finite
// acyclic derivation.
//
//lint:ctxflow-exempt least fixpoint over in-memory arrays, costs only decrease; callers check ctx between calls
func (p *Problem) TreeCosts(alive []bool) (tree []float64, pick []int) {
	tree = make([]float64, len(p.Classes))
	pick = make([]int, len(p.Classes))
	for c := range tree {
		tree[c], pick[c] = math.Inf(1), -1
	}
	for changed := true; changed; {
		changed = false
		for i, cost := range p.Costs {
			if alive == nil && !p.Allowed(i) || alive != nil && !alive[i] {
				continue
			}
			t := cost
			for _, h := range p.Children[i] {
				t += tree[h]
			}
			if c := p.ClassOf[i]; t < tree[c] {
				tree[c], pick[c] = t, i
				changed = true
			}
		}
	}
	return tree, pick
}

// evaluator is the one traversal that judges a selection (the chosen
// node per class, -1 for none): is its root closure complete and
// acyclic, which classes are in it, and what does it cost with every
// shared class paid once. Everything that needs one of those answers —
// seeding, the local search, Check — asks an evaluator. The per-class
// buffers are epoch-stamped, so a walk allocates nothing: the local
// search runs one per trial move. Not safe for concurrent use.
type evaluator struct {
	p     *Problem
	epoch int32
	state []int32 // walk colors: epoch => on the DFS stack, epoch+1 => in the closure
	mark  []int32 // marginalClosureSeen's membership stamps, valid when == epoch
	total float64
}

func newEvaluator(p *Problem) *evaluator {
	m := len(p.Classes)
	return &evaluator{p: p, state: make([]int32, m), mark: make([]int32, m)}
}

// next invalidates every stamp.
func (e *evaluator) next() {
	e.epoch += 2
	if e.epoch > 1<<30 {
		for i := range e.mark {
			e.mark[i] = 0
			e.state[i] = 0
		}
		e.epoch = 2
	}
}

// visit walks class c's closure in pre-order, adding each class's node
// cost to total once. It returns -1, or the class where the selection
// breaks: unpicked, or (cyclic) reached again while still on the stack.
func (e *evaluator) visit(pick []int, c int) (bad int, cyclic bool) {
	switch e.state[c] {
	case e.epoch + 1:
		return -1, false
	case e.epoch:
		return c, true
	}
	if pick[c] < 0 {
		return c, false
	}
	e.state[c] = e.epoch
	e.total += e.p.Costs[pick[c]]
	for _, h := range e.p.Children[pick[c]] {
		if bad, cyclic = e.visit(pick, h); bad >= 0 {
			return bad, cyclic
		}
	}
	e.state[c] = e.epoch + 1
	return -1, false
}

// walk starts a fresh traversal from the root.
func (e *evaluator) walk(pick []int) (bad int, cyclic bool) {
	e.next()
	e.total = 0
	return e.visit(pick, e.p.Root)
}

// cost returns the DAG cost of pick's root closure; ok is false when
// the closure is incomplete or cyclic.
func (e *evaluator) cost(pick []int) (cost float64, ok bool) {
	bad, _ := e.walk(pick)
	return e.total, bad < 0
}

// inClosure reports whether the last successful walk reached class c.
// It holds until the next walk.
func (e *evaluator) inClosure(c int) bool { return e.state[c] == e.epoch+1 }

// trim clears every pick outside the closure the last successful walk
// found, so that the picks >= 0 are exactly the root closure.
func (e *evaluator) trim(pick []int) {
	for c := range pick {
		if !e.inClosure(c) {
			pick[c] = -1
		}
	}
}

// Check judges a selection (class -> node) against the model, whoever
// produced it: every class the root derivation requires has a node,
// the derivation is acyclic, and each node it uses belongs to its
// class and is Allowed. It returns the DAG cost of the root closure and
// the selection restricted to that closure (MIP solvers may set
// don't-care variables in unreferenced classes). A cycle is an error
// with or without CycleConstraints: no graph can be built from one.
//
//lint:ctxflow-exempt one bounded walk over an in-memory selection; the only calls are error formatting
func (p *Problem) Check(nodeOf map[int]int) (float64, map[int]int, error) {
	pick := make([]int, len(p.Classes))
	for c := range pick {
		pick[c] = -1
	}
	for c, i := range nodeOf {
		if c < 0 || c >= len(pick) || i < 0 || i >= len(p.Costs) {
			return 0, nil, fmt.Errorf("ilp: selection names node %d of class %d, outside the model", i, c)
		}
		pick[c] = i
	}
	e := newEvaluator(p)
	if bad, cyclic := e.walk(pick); cyclic {
		return 0, nil, fmt.Errorf("ilp: selection is cyclic at class %d", bad)
	} else if bad >= 0 {
		return 0, nil, fmt.Errorf("ilp: selection misses required class %d", bad)
	}
	closure := make(map[int]int)
	for c, i := range pick {
		if !e.inClosure(c) {
			continue
		}
		if p.ClassOf[i] != c {
			return 0, nil, fmt.Errorf("ilp: node %d does not belong to class %d", i, c)
		}
		if !p.Allowed(i) {
			return 0, nil, fmt.Errorf("ilp: selection uses forbidden node %d", i)
		}
		closure[c] = i
	}
	return e.total, closure, nil
}
