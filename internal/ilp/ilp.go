// Package ilp solves the 0-1 integer linear program of TENSAT's
// extraction phase (§5.1). The paper uses SCIP behind Google OR-tools;
// neither exists in Go's standard-library ecosystem, so this package
// implements an exact branch-and-bound solver specialized to the
// extraction program's constraint shapes:
//
//	minimize    sum_i c_i x_i
//	subject to  x_i in {0,1}
//	            sum_{i in e_0} x_i = 1                    (root class)
//	            x_i <= sum_{j in e_m} x_j   for m in h_i  (children)
//	            x_i = 0                     for filtered i
//	            optional topological-order constraints
//	            t_{g(i)} - t_m - eps + A(1 - x_i) >= 0    (acyclicity)
//
// Branch-and-bound explores "which e-node is picked for each required
// e-class", with an admissible lower bound (each required-but-
// undecided class contributes at least its cheapest allowed node).
// With CycleConstraints enabled the solver additionally maintains the
// acyclicity of the chosen selection — via incremental DFS when
// TopoReal (the continuous t_m encoding) or explicit integer level
// labels when TopoInt — which is exactly what makes the constrained
// program much slower to solve, reproducing Table 5.
//
// There is one search driver (parallel.go): workers claim replayable
// prefixes of branch decisions and search the subtrees below them
// against a shared incumbent. A sequential solve is that driver with
// one worker claiming the empty prefix, so every worker count accepts
// incumbents by the same rule and returns the same selection. Optimal
// and Explored can still differ by worker count: a budget is spent
// across a different tree. On NasNet-A (test scale) explored to 10,000
// e-nodes at k_multi 1, the solve proves its 107.0 µs selection optimal
// with 2 workers and stalls unproved with 1, at the same cost.
//
// One tie rule decides between equals: among equal costs or keys, the
// lower variable index wins. prepare sorts each class's allowed nodes
// by (cost, index), and every scan that takes the first cheapest node
// reads that list: forced choices, free picks, the local search's
// completions and switches. candidates orders a branch by (key, index),
// and the units collectUnits hands out follow that order, so an
// equal-cost incumbent goes to the earlier candidate at every worker
// count. No choice depends on the order a class lists its members in.
// The one selection made elsewhere is the greedy start, TreeCosts'
// pick, which keeps the first node to reach a class's least tree cost.
//
// A worker owns everything an expansion writes: per class the chosen
// node and the count of chosen nodes requiring it, per search depth a
// frame holding the pending list handed to the depth below and the
// candidates of the class branched on. One node per depth is live at a
// time, so every node at a depth reuses its frame, which grows to the
// widest one and then never allocates: an expansion is a bound
// compare, a scan and a copy of the pending classes and one counter
// update per child, with no heap traffic, and the scan skips what it
// has already found without a forced choice. The frames live and die
// with the solve.
//
// The Problem is also the only judge of a selection (selection.go):
// Allowed says which nodes are in the model, TreeCosts bounds a class,
// and Check decides whether a selection is complete, acyclic and
// admissible and what it costs — for the solver's own seeding and
// local search, for presolve, and for answers that come back from an
// external solver alike. Model reduction before any solve lives in the
// presolve subpackage, standard-format export in lpfile, and the
// solver backends in backend.
package ilp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// TopoMode selects how the acyclicity constraints are enforced,
// mirroring the paper's real-valued vs integer-valued t_m variables.
type TopoMode int

const (
	// TopoReal models the continuous topological-order variables:
	// feasibility of an assignment is decided by cycle detection.
	TopoReal TopoMode = iota
	// TopoInt models integer topological levels in [0, M-1], maintained
	// explicitly by longest-path relaxation.
	TopoInt
)

// String names the mode.
func (m TopoMode) String() string {
	if m == TopoInt {
		return "int"
	}
	return "real"
}

// Problem is an extraction ILP instance. Nodes are indexed 0..N-1 and
// classes 0..M-1.
type Problem struct {
	Costs     []float64 // c_i, one per node
	ClassOf   []int     // g(i): owning class of node i
	Children  [][]int   // h_i: children classes of node i
	Classes   [][]int   // e_m: members of class m
	Root      int       // root class index
	Forbidden []bool    // x_i = 0 (cycle filter list); nil means none

	// CycleConstraints includes the topological-order constraints; the
	// caller must set this when the e-graph may contain cycles.
	CycleConstraints bool
	TopoMode         TopoMode
	Timeout          time.Duration
	// StallLimit stops the search after this many node expansions
	// without an incumbent improvement and returns the incumbent
	// (Optimal=false, Stalled=true) — the practical analogue of a MIP
	// gap tolerance. Zero means no stall limit. Exhaustive search on
	// heavily merged e-graphs needs LP-strength bounds (what SCIP has
	// and this branch-and-bound does not).
	StallLimit int64
	// Start is an initial selection (node per class, -1 for unselected
	// classes), nil for none. If it is complete and acyclic from the
	// root, the builtin solver refines it like its own greedy start and
	// starts from the better of the two, so the solution is never worse
	// than Start. The external backends do not read it.
	Start []int
	// OnIncumbent, when non-nil, is called each time the incumbent
	// improves: once after seeding and again on every
	// improvement branch-and-bound finds. It receives the incumbent
	// cost and the expansions done so far, and must return quickly (it
	// runs on the search's hot path). Calls are serialized under the
	// solver's incumbent lock and see strictly decreasing costs.
	OnIncumbent func(cost float64, explored int64)
}

// Clone returns a shallow-sharing copy of the problem: the slice
// headers are fresh (so Forbidden and the option fields can be
// replaced) but the per-node arrays are shared. Presolve uses it to
// return a reduced model without mutating the caller's.
func (p *Problem) Clone() *Problem {
	q := *p
	return &q
}

// Solution is the solver's answer.
type Solution struct {
	// NodeOf maps each selected class to its chosen node; classes not
	// needed by the root derivation are absent.
	NodeOf map[int]int
	Cost   float64
	// Optimal is true when the search space was exhausted; false on
	// timeout or stall, in which case the incumbent (if any) is returned.
	Optimal  bool
	TimedOut bool
	// Canceled is true when the caller's context ended the search; the
	// incumbent (if any) is still returned, like a timeout.
	Canceled bool
	// Stalled is true when StallLimit ended the search.
	Stalled bool
	// Explored counts branch-and-bound node expansions, summed over
	// workers.
	Explored int64
	Time     time.Duration
	// SeedCost is the lesser cost of the greedy start and
	// Problem.Start, before refinement; ImproveCommits counts the
	// moves the sharing-aware local search applied to them before
	// branch-and-bound (diagnostics).
	SeedCost       float64
	ImproveCommits int
	// Incumbents counts incumbent improvements (the warm-start seed
	// included); FirstIncumbent is how long the solve ran before the
	// first one landed.
	Incumbents     int
	FirstIncumbent time.Duration
	// Workers is how many goroutines searched.
	Workers int
}

// ErrInfeasible is returned when no acyclic selection exists.
var ErrInfeasible = errors.New("ilp: infeasible extraction problem")

// ErrTimeout is returned when the deadline or stall limit passed
// before any feasible solution was found. Caller cancellation without
// an incumbent surfaces as the context's own error instead, so callers
// never have to reverse-map ErrTimeout onto a dead context.
var ErrTimeout = errors.New("ilp: timeout before first feasible solution")

// Validate checks index consistency.
//
//lint:ctxflow-exempt single bounded pass over in-memory index arrays; the only calls are error formatting
func (p *Problem) Validate() error {
	n, m := len(p.Costs), len(p.Classes)
	if len(p.ClassOf) != n || len(p.Children) != n {
		return fmt.Errorf("ilp: inconsistent node arrays")
	}
	if p.Root < 0 || p.Root >= m {
		return fmt.Errorf("ilp: root class %d out of range", p.Root)
	}
	if p.Forbidden != nil && len(p.Forbidden) != n {
		return fmt.Errorf("ilp: forbidden mask has %d entries for %d nodes", len(p.Forbidden), n)
	}
	for i, c := range p.ClassOf {
		if c < 0 || c >= m {
			return fmt.Errorf("ilp: node %d in bad class %d", i, c)
		}
	}
	for i, hs := range p.Children {
		for _, h := range hs {
			if h < 0 || h >= m {
				return fmt.Errorf("ilp: node %d has bad child class %d", i, h)
			}
		}
	}
	return nil
}

// tables are the read-only facts prepare derives from the problem once;
// the master and every worker share one copy.
type tables struct {
	allowed  [][]int   // per class: Allowed nodes, cheap first
	atMin    []int     // per class: how many of them, a prefix, cost the class minimum
	minCost  []float64 // per class: cheapest allowed node cost
	greedy   []float64 // per class: tree cost, for branch ordering and completions
	treePick []int     // per class: the node that reached greedy, the seed's first start
	freePick []int     // per class: node with a zero-cost acyclic derivation, or -1
	// watch[c] is a 64-bit Bloom set of the children of c's at-minimum
	// nodes: c gains a forced choice only when one becomes required.
	watch []uint64
}

// frame is the memory one search depth reuses for every node it
// visits. pending is what the depth above hands down: the hi classes
// it kept, then those the decision under trial newly requires; of the
// kept ones, pending[lo:hi] had no forced choice when the depth above
// scanned them. cands orders the class the depth above branches on.
type frame struct {
	pending []int
	lo, hi  int
	cands   []cand
}

// cand is a branching candidate with its ordering key.
type cand struct {
	key  float64
	node int
}

type solver struct {
	p           *Problem
	deadline    time.Time
	hasDeadline bool
	done        <-chan struct{} // caller cancellation; nil means none
	canceled    bool
	*tables

	chosen      []int // per class: chosen node or -1
	need        []int // per class: how many chosen nodes require it
	acc         float64
	explored    int64
	lastImprove int64
	timedOut    bool
	stalled     bool

	frames []frame // frames[d] belongs to search depth d
	// Scratch of the acyclicity checks, next to ev.state's seen stamps:
	// TopoInt's longest-path labels and worklist.
	level []int32
	queue []int

	// The master solver (prepare, seed, collectUnits) keeps the seed
	// incumbent in best/bestPick; it never searches. A worker searches
	// units against shared, and best is its cached copy of the shared
	// bound.
	best           float64
	bestPick       []int
	improveCommits int
	ev             *evaluator // a worker has its own, and only under CycleConstraints
	shared         *parallelShared
	unitIdx        int
}

// prepare validates the problem and builds the master solver: every
// precomputed read-only table (allowed nodes, class minima, tree
// costs, free picks, watch sets) plus search state at rest.
func prepare(ctx context.Context, p *Problem, start time.Time) (*solver, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &solver{p: p, done: ctx.Done(), ev: newEvaluator(p), tables: &tables{}}
	if p.Timeout > 0 {
		s.deadline = start.Add(p.Timeout)
		s.hasDeadline = true
	}
	m := len(p.Classes)
	s.allowed = make([][]int, m)
	s.atMin = make([]int, m)
	s.watch = make([]uint64, m)
	s.minCost = make([]float64, m)
	for c, members := range p.Classes {
		for _, i := range members {
			if p.Allowed(i) {
				s.allowed[c] = append(s.allowed[c], i)
			}
		}
		slices.SortFunc(s.allowed[c], func(a, b int) int {
			if d := cmp.Compare(p.Costs[a], p.Costs[b]); d != 0 {
				return d
			}
			return a - b
		})
		s.minCost[c] = math.Inf(1)
		if len(s.allowed[c]) > 0 {
			s.minCost[c] = p.Costs[s.allowed[c][0]]
		}
		for _, i := range s.allowed[c] {
			if p.Costs[i] > s.minCost[c]+boundAdjust {
				break
			}
			s.atMin[c]++
			for _, h := range p.Children[i] {
				s.watch[c] |= 1 << (h % 64)
			}
		}
	}
	s.computeFree()
	s.greedy, s.treePick = p.TreeCosts(nil)
	s.atRest()
	s.best = math.Inf(1)
	return s, nil
}

// atRest gives s the search state of an empty assignment.
func (s *solver) atRest() {
	m := len(s.p.Classes)
	s.chosen = make([]int, m)
	for i := range s.chosen {
		s.chosen[i] = -1
	}
	s.need = make([]int, m)
	s.frames = make([]frame, 1)
	if s.p.CycleConstraints && s.ev == nil {
		s.ev = newEvaluator(s.p)
	}
	if s.p.CycleConstraints && s.p.TopoMode == TopoInt {
		s.level = make([]int32, m)
	}
}

// seed installs the better of two starts, each refined by the
// sharing-aware local search, as the master's incumbent, trimmed to its
// root closure, and returns the better unrefined start cost. The first
// start is the greedy extraction, TreeCosts' pick trimmed to its root
// closure: it keeps the answer from being worse than greedy however
// early the search is cut off, and sharpens pruning from the first
// branch. The second is Problem.Start. It only has to be complete and
// acyclic: it may name a node presolve has since dropped, which is
// still a sound choice in the model as built, and rejecting it would
// throw away the caller's floor on the answer.
func (s *solver) seed() (seedCost float64) {
	greedy := slices.Clone(s.treePick)
	if _, ok := s.ev.cost(greedy); ok {
		s.ev.trim(greedy)
	}
	starts := [][]int{greedy}
	if len(s.p.Start) == len(s.p.Classes) {
		starts = append(starts, s.p.Start)
	}
	seedCost = math.Inf(1)
	for _, st := range starts {
		cost, ok := s.ev.cost(st)
		if !ok {
			continue
		}
		seedCost = min(seedCost, cost)
		if imp, impCost := s.improveFrom(st); impCost < s.best {
			s.best, s.bestPick = impCost, imp
		}
	}
	return seedCost
}

// computeFree finds, per class, a node with an entirely zero-cost
// derivation (weight-foldable expressions, literals, views). Choosing
// it dominates every alternative — it adds zero cost and only
// zero-cost requirements — so such classes are never branched on.
// This collapses the exponential plateau of interchangeable foldable
// weight expressions that otherwise drowns the search. The fixpoint
// witness order guarantees the recorded derivation is well-founded
// (acyclic), so the rule is also safe under cycle constraints.
func (s *solver) computeFree() {
	m := len(s.p.Classes)
	s.freePick = make([]int, m)
	for c := range s.freePick {
		s.freePick[c] = -1
	}
	for changed := true; changed; {
		changed = false
		for c := 0; c < m; c++ {
			if s.freePick[c] >= 0 {
				continue
			}
			for _, i := range s.allowed[c] {
				if s.p.Costs[i] > boundAdjust {
					continue
				}
				ok := true
				for _, h := range s.p.Children[i] {
					if s.freePick[h] < 0 {
						ok = false
						break
					}
				}
				if ok {
					s.freePick[c] = i
					changed = true
					break
				}
			}
		}
	}
}

// pickClass selects the next class to decide from pending — exactly
// the required, undecided classes — following the branching policy: a
// class with a free pick or a forced choice is returned with its node
// (assign it directly, no branching); otherwise the class with the
// fewest candidates (fail-first) is returned with node -1. idx is -1
// when nothing is pending (feasible leaf).
//
// pending[lo:hi] had no forced choice one decision ago. A decision
// only adds requirements, and those it added are pending[hi:], so of
// the known classes only one that watches an arrival is tested again.
func (s *solver) pickClass(pending []int, lo, hi int) (idx, node int) {
	idx, node = -1, -1
	fewest := math.MaxInt
	forcing := !s.p.CycleConstraints
	var arrived uint64 // Bloom set of pending[hi:], complete before the scan reaches hi
	for i := len(pending) - 1; i >= 0; i-- {
		c := pending[i]
		if i >= hi {
			arrived |= 1 << (c % 64)
		}
		if f := s.freePick[c]; f >= 0 {
			return i, f
		}
		if forcing && (i < lo || i >= hi || s.watch[c]&arrived != 0) {
			if f := s.forcedChoice(c); f >= 0 {
				return i, f
			}
		}
		if n := len(s.allowed[c]); n < fewest {
			fewest, idx = n, i
		}
	}
	return idx, -1
}

// forcedChoice returns a node of class c that dominates all
// alternatives given the current partial assignment: its cost equals
// the class minimum and every child class is already required (will be
// paid regardless). Returns -1 if no such node exists. A decided class
// is a required one — it was pending when it was decided, and what
// required it is undone after it — so need alone answers.
func (s *solver) forcedChoice(c int) int {
next:
	for _, i := range s.allowed[c][:s.atMin[c]] {
		for _, h := range s.p.Children[i] {
			if s.need[h] == 0 {
				continue next
			}
		}
		return i
	}
	return -1
}

// branch decides the next undecided required class. pending holds the
// required-but-undecided classes and lives in frames[depth]; bound is
// the sum of their minCosts. The list and the candidates of the
// subtree below go into frames[depth+1], which no deeper call touches
// while this one uses it, so a grown frame makes an expansion
// allocation-free.
func (s *solver) branch(depth int, pending []int, bound float64) {
	s.explored++
	if s.timedOut || s.stalled {
		return
	}
	if s.explored%512 == 0 {
		if s.hasDeadline && time.Now().After(s.deadline) {
			s.timedOut = true
			return
		}
		select {
		case <-s.done:
			s.timedOut = true
			s.canceled = true
			return
		default:
		}
		// Refresh the pruning bound at the same cadence as the clock
		// checks, so a sibling's improvement tightens this subtree within
		// 512 expansions without an atomic load on every branch.
		s.refreshBound()
	}
	// The stall limit applies even before a first incumbent exists
	// (with a grace factor), so a search that cannot find any feasible
	// solution still terminates.
	if s.p.StallLimit > 0 && s.explored-s.lastImprove > s.p.StallLimit {
		if !math.IsInf(s.shared.best(), 1) || s.explored-s.lastImprove > 8*s.p.StallLimit {
			s.stalled = true
			return
		}
	}
	if s.acc+bound-boundAdjust >= s.best {
		return
	}
	// Select an undecided required class. A class with a *forced
	// choice* — a node at the class minimum whose children are all
	// already required or decided (so picking it adds no cost slack
	// and no new requirements, dominating every alternative) — is
	// assigned immediately without branching. This collapses the
	// zero-cost plateaus that split0/split1 alternatives create.
	// Otherwise branch on the class with the fewest candidates
	// (fail-first). Forced choices are disabled under cycle
	// constraints, where an alternative might be the only acyclic one.
	idx, forced := s.pickClass(pending, s.frames[depth].lo, s.frames[depth].hi)
	if idx < 0 {
		// All required classes decided: feasible solution.
		s.foundSolution()
		return
	}
	c := pending[idx]
	s.dropInto(depth+1, pending, idx, forced >= 0)
	bound -= s.minCost[c]
	if forced >= 0 {
		s.assign(depth+1, step{c, forced}, bound)
		return
	}
	for _, cd := range s.candidates(depth+1, c) {
		s.assign(depth+1, step{c, cd.node}, bound)
		if s.timedOut {
			return
		}
	}
}

// dropInto hands pending without index idx, order kept, down to
// frames[depth]. early says pickClass returned at idx without scanning
// below it; what it did scan held no forced choice.
func (s *solver) dropInto(depth int, pending []int, idx int, early bool) {
	if depth == len(s.frames) {
		s.frames = append(s.frames, frame{})
	}
	f := &s.frames[depth]
	f.pending = append(append(f.pending[:0], pending[:idx]...), pending[idx+1:]...)
	f.lo, f.hi = 0, len(f.pending)
	if early {
		f.lo = idx
	}
}

// candidates returns class c's allowed nodes in branching order, in
// frames[depth]'s buffer: by the greedy heuristic, each key computed
// once, equal keys by variable index.
func (s *solver) candidates(depth, c int) []cand {
	cands := s.frames[depth].cands[:0]
	for _, i := range s.allowed[c] {
		cands = append(cands, cand{s.nodeHeuristic(i), i})
	}
	s.frames[depth].cands = cands
	slices.SortFunc(cands, func(a, b cand) int { // no key is NaN, and cmp.Compare's tests for it cost BERT's search 8 %
		if a.key < b.key {
			return -1
		}
		if a.key > b.key {
			return 1
		}
		return a.node - b.node
	})
	return cands
}

// foundSolution offers the current complete assignment to the shared
// incumbent, which takes it if it improves on (or, from an earlier
// unit, ties) the best known one.
func (s *solver) foundSolution() {
	if s.acc >= s.best {
		return
	}
	if s.shared.offer(s.acc, s.chosen, s.unitIdx, s.shared.explored.Load()+s.explored) {
		s.lastImprove = s.explored
	}
	s.refreshBound()
}

// refreshBound lowers the worker's pruning bound to the shared one.
func (s *solver) refreshBound() {
	if b := s.shared.best(); b < s.best {
		s.best = b
	}
}

// nodeHeuristic estimates the tree cost of picking node i.
func (s *solver) nodeHeuristic(i int) float64 {
	t := s.p.Costs[i]
	for _, h := range s.p.Children[i] {
		if s.chosen[h] < 0 {
			t += s.greedy[h]
		}
	}
	return t
}

// step is one branch decision: node chosen for class. A sequence of
// steps from the root is a replayable partial assignment — the unit of
// work the driver distributes.
type step struct{ class, node int }

// applyStep mutates the search state for one decision — chosen, acc,
// child requirement counts — and returns pending, a frame's buffer
// extended in place by the classes the decision newly requires, and
// bound. The caller has already removed st.class from pending and
// subtracted its minCost from bound.
func (s *solver) applyStep(st step, pending []int, bound float64) ([]int, float64) {
	s.chosen[st.class] = st.node
	s.acc += s.p.Costs[st.node]
	for _, h := range s.p.Children[st.node] {
		s.need[h]++
		if s.need[h] == 1 && s.chosen[h] < 0 {
			pending = append(pending, h)
			bound += s.minCost[h]
		}
	}
	return pending, bound
}

// undoStep reverses applyStep (pending/bound are the caller's to drop).
func (s *solver) undoStep(st step) {
	for _, h := range s.p.Children[st.node] {
		s.need[h]--
	}
	s.acc -= s.p.Costs[st.node]
	s.chosen[st.class] = -1
}

// assign tries one decision on top of the classes frames[depth] was
// handed and recurses. The list it extends stays in the frame, so a
// buffer that had to grow is the one the next sibling appends to.
func (s *solver) assign(depth int, st step, bound float64) {
	if s.p.CycleConstraints && s.createsCycle(st.class, st.node) {
		return
	}
	f := &s.frames[depth]
	next, bound := s.applyStep(st, f.pending[:f.hi], bound)
	f.pending = next
	s.branch(depth, next, bound)
	s.undoStep(st)
}

// boundAdjust guards against floating-point equality ties pruning the
// incumbent itself.
const boundAdjust = 1e-9

// createsCycle checks whether choosing node i for class c closes a
// cycle among currently chosen classes. TopoReal uses DFS reachability
// (the continuous t_m constraints are satisfiable iff the chosen
// subgraph is acyclic); TopoInt maintains integer levels by longest-
// path relaxation with the same feasibility condition but a different
// (slower on deep graphs) propagation style. Both keep their visited
// sets in the solver's epoch-stamped scratch.
func (s *solver) createsCycle(c, i int) bool {
	s.ev.next()
	if s.p.TopoMode == TopoInt {
		return s.createsCycleInt(c, i)
	}
	for _, h := range s.p.Children[i] {
		if s.reaches(h, c) {
			return true
		}
	}
	return false
}

// reaches reports whether target can be reached from class cls through
// chosen nodes, not re-entering a class this check has seen.
func (s *solver) reaches(cls, target int) bool {
	if cls == target {
		return true
	}
	if s.ev.state[cls] == s.ev.epoch {
		return false
	}
	s.ev.state[cls] = s.ev.epoch
	n := s.chosen[cls]
	if n < 0 {
		return false
	}
	for _, h := range s.p.Children[n] {
		if s.reaches(h, target) {
			return true
		}
	}
	return false
}

// createsCycleInt labels classes with integer levels: level[h] >=
// level[cls] + 1 for every chosen edge cls -> h, relaxed along longest
// paths from c with node i tentatively chosen. A cycle exists iff the
// relaxation returns to c or a label reaches the class count.
func (s *solver) createsCycleInt(c, i int) bool {
	seen, epoch := s.ev.state, s.ev.epoch
	m := int32(len(s.p.Classes))
	prev := s.chosen[c]
	s.chosen[c] = i
	cyclic := false
	q := append(s.queue[:0], c)
	seen[c], s.level[c] = epoch, 0
relax:
	for head := 0; head < len(q); head++ {
		cls := q[head]
		if s.level[cls] >= m {
			cyclic = true // longest path longer than class count
			break
		}
		n := s.chosen[cls]
		if n < 0 {
			continue
		}
		for _, h := range s.p.Children[n] {
			if h == c {
				cyclic = true
				break relax
			}
			if seen[h] != epoch || s.level[h] < s.level[cls]+1 {
				seen[h], s.level[h] = epoch, s.level[cls]+1
				q = append(q, h)
			}
		}
	}
	s.queue = q
	s.chosen[c] = prev
	return cyclic
}
