package ilp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// parallelShared is the incumbent state shared by every worker of a
// solve: the best cost as atomic float64 bits (lock-free reads on the
// pruning hot path) and, under the mutex, the best selection with its
// originating unit index for deterministic tie-breaking, the incumbent
// diagnostics, and the OnIncumbent fanout.
type parallelShared struct {
	bestBits atomic.Uint64 // math.Float64bits of the best cost
	explored atomic.Int64  // expansions of finished units, summed over workers

	mu             sync.Mutex
	bestPick       []int
	bestUnit       int
	incumbents     int
	firstIncumbent time.Duration
	start          time.Time
	onIncumbent    func(cost float64, explored int64)
}

// newShared returns the incumbent state of a solve begun at start, with
// no incumbent yet.
func newShared(start time.Time, onIncumbent func(cost float64, explored int64)) *parallelShared {
	sh := &parallelShared{start: start, onIncumbent: onIncumbent}
	sh.bestBits.Store(math.Float64bits(math.Inf(1)))
	return sh
}

// best returns the current shared incumbent cost (+Inf when none).
func (sh *parallelShared) best() float64 {
	return math.Float64frombits(sh.bestBits.Load())
}

// offer proposes a complete selection found while searching unit,
// explored expansions into the solve. It is accepted when strictly
// better than the incumbent, or when equal (within boundAdjust) but
// found in an earlier unit — the tie-break that makes the result
// deterministic regardless of worker scheduling: among equal-cost
// optima, the one from the lowest unit index wins, which is the one a
// single worker commits first.
func (sh *parallelShared) offer(cost float64, pick []int, unit int, explored int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.best()
	improved := cost < cur-boundAdjust
	tie := !improved && math.Abs(cost-cur) <= boundAdjust && unit < sh.bestUnit
	if !improved && !tie {
		return false
	}
	sh.bestPick = append(sh.bestPick[:0:0], pick...)
	sh.bestUnit = unit
	sh.bestBits.Store(math.Float64bits(cost))
	if improved {
		sh.incumbents++
		if sh.incumbents == 1 {
			sh.firstIncumbent = time.Since(sh.start)
		}
		if sh.onIncumbent != nil {
			sh.onIncumbent(cost, explored)
		}
	}
	return true
}

// unit is one parcel of work: a replayable prefix of branch
// decisions from the root. The subtree below the prefix is searched
// exhaustively by whichever worker claims the unit.
type unit struct {
	steps []step
}

// unitsPerWorker oversubscribes the unit pool so the atomic work queue
// load-balances uneven subtrees, and unitDepth caps how deep the
// collection pass expands before handing subtrees off.
const (
	unitsPerWorker = 8
	unitDepth      = 4
)

// collectUnits expands the top of the search tree breadth-limited and
// returns the frontier as replayable prefixes. It runs on the master
// solver (whose warm-start bound prunes hopeless prefixes), takes the
// steps branch would take — same class, same candidate order — and
// leaves the search state exactly as it found it. Free and forced
// picks are recorded in the prefix but do not consume depth: they are
// the plateau-collapsing assignments, not real branching.
func (s *solver) collectUnits(target int) []unit {
	var units []unit
	var prefix []step
	emit := func(steps ...step) {
		units = append(units, unit{steps: append(slices.Clone(prefix), steps...)})
	}
	// at counts every step from the root (the frame index), depth only
	// the branching ones.
	var walk func(at, depth int, pending []int, bound float64)
	walk = func(at, depth int, pending []int, bound float64) {
		if s.acc+bound-boundAdjust >= s.best {
			return // a warm start already beats everything below
		}
		idx, forced := s.pickClass(pending, s.frames[at].lo, s.frames[at].hi)
		if idx < 0 {
			// Complete solution at collection depth; a unit with a full
			// prefix makes the claiming worker just evaluate the leaf.
			emit()
			return
		}
		c := pending[idx]
		s.dropInto(at+1, pending, idx, forced >= 0)
		bound -= s.minCost[c]
		expand := func(node int, deeper int) {
			if s.p.CycleConstraints && s.createsCycle(c, node) {
				return
			}
			st := step{c, node}
			if deeper > unitDepth || (deeper == unitDepth && len(units) >= target) {
				emit(st)
				return
			}
			f := &s.frames[at+1]
			next, nb := s.applyStep(st, f.pending[:f.hi], bound)
			f.pending = next
			prefix = append(prefix, st)
			walk(at+1, deeper, next, nb)
			prefix = prefix[:len(prefix)-1]
			s.undoStep(st)
		}
		if forced >= 0 {
			expand(forced, depth) // no branching happened: same depth
			return
		}
		// The frontier's sibling order is this exchange sort's, which
		// differs from candidates' on equal keys: it decides which subtree
		// is which unit, and zoo_tree_golden.json pins that.
		cands := s.keyed(at+1, c)
		for k := range cands {
			for k2 := k + 1; k2 < len(cands); k2++ {
				if cands[k2].key < cands[k].key {
					cands[k], cands[k2] = cands[k2], cands[k]
				}
			}
		}
		for _, cd := range cands {
			if len(units) >= target && depth > 0 {
				// Enough parallelism below this level: emit remaining
				// siblings as whole-subtree units without expanding.
				expand(cd.node, unitDepth+1)
				continue
			}
			expand(cd.node, depth+1)
		}
	}
	s.need[s.p.Root] = 1
	s.frames[0] = frame{pending: append(s.frames[0].pending[:0], s.p.Root)}
	walk(0, 0, s.frames[0].pending, s.minCost[s.p.Root])
	s.need[s.p.Root] = 0
	return units
}

// worker gives a fresh search state the master's read-only tables and
// binds it to the shared incumbent.
func (s *solver) worker(sh *parallelShared) *solver {
	w := &solver{
		p:           s.p,
		deadline:    s.deadline,
		hasDeadline: s.hasDeadline,
		done:        s.done,
		tables:      s.tables,
		best:        sh.best(),
		shared:      sh,
	}
	w.atRest()
	return w
}

// runUnit replays the unit's decision prefix and searches the subtree
// below it exhaustively (modulo pruning against the shared bound),
// then puts the worker back at rest and hands in its count. The replay
// edits one pending list in place, in frames[0], where the search
// below starts.
func (w *solver) runUnit(u unit, idx int) {
	w.unitIdx = idx
	root := w.p.Root
	w.need[root] = 1
	pending := append(w.frames[0].pending[:0], root)
	bound := w.minCost[root]
	applied := 0
	for _, st := range u.steps {
		at := slices.Index(pending, st.class)
		if at < 0 {
			// Skipping the unit would let the solve report a proof over a
			// subtree nobody searched.
			panic("ilp: unit prefix does not replay: class not pending")
		}
		pending = slices.Delete(pending, at, at+1)
		bound -= w.minCost[st.class]
		if w.p.CycleConstraints && w.createsCycle(st.class, st.node) {
			break
		}
		pending, bound = w.applyStep(st, pending, bound)
		applied++
	}
	w.frames[0] = frame{pending: pending} // lo = hi = 0: nothing scanned yet
	if applied == len(u.steps) {
		w.branch(0, pending, bound)
	}
	for i := applied - 1; i >= 0; i-- {
		w.undoStep(u.steps[i])
	}
	w.need[root] = 0
	w.shared.explored.Add(w.explored)
	w.explored, w.lastImprove = 0, 0 // the stall budget is per unit
	w.refreshBound()
}

// DefaultWorkers is the worker count used when the caller passes 0:
// the machine's parallelism, capped to keep solve fan-out from
// starving the serving path on large hosts.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// searchUnits runs one goroutine per worker, each claiming units in
// order until none is left or its search timed out or stalled, and
// returns when all have stopped. A worker's panic is raised again
// here, with its stack: on the caller's goroutine the pipeline's
// recovery makes it a failed job, on the worker's own it would take
// the process down.
func searchUnits(pool []*solver, units []unit) {
	var (
		nextUnit atomic.Int64
		wg       sync.WaitGroup
	)
	panics := make([]error, len(pool))
	for wi, w := range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[wi] = fmt.Errorf("%v\n\n%s", r, debug.Stack())
				}
			}()
			for {
				i := int(nextUnit.Add(1)) - 1
				if i >= len(units) || w.timedOut || w.stalled {
					break
				}
				w.runUnit(units[i], i)
			}
		}()
	}
	wg.Wait()
	for _, err := range panics {
		if err != nil {
			panic(err)
		}
	}
}

// SolveParallelContext is the branch-and-bound driver. Workers claim
// units — disjoint subtrees of the search — and search them against a
// shared atomic incumbent bound, so every pruning improvement
// propagates across the pool; equal-cost optima are tie-broken by unit
// order, making the returned selection deterministic for a given
// problem regardless of scheduling. One worker searches the whole tree
// as a single unit; more split its top with collectUnits. Every worker
// count accepts incumbents by the one rule in offer. workers <= 0
// selects DefaultWorkers(). When ctx is done the search stops at the
// next check point and the incumbent (if any) is returned with
// Canceled set, exactly like a timeout; with no incumbent it returns
// ctx.Err() so callers see the cancellation directly.
func SolveParallelContext(ctx context.Context, p *Problem, workers int) (*Solution, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	start := time.Now()
	master, err := prepare(ctx, p, start)
	if err != nil {
		return nil, err
	}
	seedCost := master.seed()

	sh := newShared(start, p.OnIncumbent)
	if master.bestPick != nil {
		sh.offer(master.best, master.bestPick, -1, 0) // unit -1: the warm start precedes every unit
	}

	units := []unit{{}}
	if workers > 1 {
		units = master.collectUnits(workers * unitsPerWorker)
		workers = min(workers, len(units))
	}
	pool := make([]*solver, workers)
	for wi := range pool {
		pool[wi] = master.worker(sh)
	}
	searchUnits(pool, units)

	sol := &Solution{
		Explored:       sh.explored.Load(),
		Time:           time.Since(start),
		SeedCost:       seedCost,
		ImproveCommits: master.improveCommits,
		Incumbents:     sh.incumbents,
		FirstIncumbent: sh.firstIncumbent,
		Workers:        workers,
	}
	for _, w := range pool {
		sol.TimedOut = sol.TimedOut || w.timedOut
		sol.Canceled = sol.Canceled || w.canceled
		sol.Stalled = sol.Stalled || w.stalled
	}
	sol.Optimal = !sol.TimedOut && !sol.Stalled
	if sh.bestPick == nil {
		switch {
		case sol.Canceled:
			return nil, ctx.Err()
		case sol.TimedOut || sol.Stalled:
			return nil, ErrTimeout
		default:
			return nil, ErrInfeasible
		}
	}
	// Both the seed and a search leaf pick exactly their root closure.
	sol.Cost = sh.best()
	sol.NodeOf = make(map[int]int)
	for c, n := range sh.bestPick {
		if n >= 0 {
			sol.NodeOf[c] = n
		}
	}
	return sol, nil
}
