package ilp

import (
	"math"
	"slices"
)

type addEntry struct {
	class, node int
}

// improveFrom strengthens a warm start with a sharing-aware local
// search before branch-and-bound begins. Greedy per-class choices
// cannot discover rewrites whose payoff is joint — e.g. the Figure 2
// merged matmul is only profitable when *both* outputs switch to its
// split projections (§6.5 of the paper). Two move generators run to a
// fixpoint:
//
//  1. single-class switches: replace one class's pick (greedily
//     completing any new requirements) if the re-validated total
//     improves — this also repairs warm starts that materialize
//     expensive duplicated structure;
//  2. hub moves: tentatively require a non-selected "hub" class, then
//     switch every selected class that gains from reusing it; commit
//     when the joint savings exceed the hub's marginal cost.
//
// Every commit is re-validated by the evaluator (closure complete,
// acyclic, cost recomputed), so this only seeds branch-and-bound with
// a better incumbent; exactness is unaffected. The result is a copy of
// start, trimmed to its root closure.
func (s *solver) improveFrom(start []int) ([]int, float64) {
	m := len(s.p.Classes)
	pick := append([]int(nil), start...)

	for pass := 0; pass < 512; pass++ {
		curCost, ok := s.ev.cost(pick)
		if !ok {
			return pick, math.Inf(1) // broken start; caller discards
		}
		required := make([]bool, m)
		for c := range required {
			required[c] = s.ev.inClosure(c)
		}
		if s.singleSwitchSweep(pick, required, curCost) {
			continue
		}
		// Classes worth switching for hub moves: selected, paying a
		// real cost, with at least one cheaper alternative node.
		var switchable []int
		for c := 0; c < m; c++ {
			if !required[c] || pick[c] < 0 {
				continue
			}
			cur := s.p.Costs[pick[c]]
			if cur <= boundAdjust {
				continue
			}
			for _, i := range s.allowed[c] {
				if s.p.Costs[i] < cur {
					switchable = append(switchable, c)
					break
				}
			}
		}
		// Evaluate every candidate alternative once against the current
		// base, recording its marginal completion ("support"). A hub can
		// only improve an alternative whose support contains the hub's
		// completion classes, so an inverted index (class -> interested
		// alternatives) reduces the hub loop to relevant re-evaluations.
		type altInfo struct {
			class, node int
			cur, gain   float64 // gain against the plain base (may be <= 0)
			adds        []addEntry
		}
		var alts []altInfo
		interested := make(map[int][]int) // class -> indices into alts
		hubCandidate := make([]bool, m)
		for _, c := range switchable {
			cur := s.p.Costs[pick[c]]
			for _, i := range s.allowed[c] {
				if i == pick[c] || s.p.Costs[i] >= cur {
					continue
				}
				marginal := s.p.Costs[i]
				var adds []addEntry
				feasible := true
				for _, h := range s.p.Children[i] {
					if h == c {
						feasible = false
						break
					}
					if required[h] {
						continue
					}
					sub, subPick, okc := s.marginalClosureSeen(h, required, adds)
					if !okc {
						feasible = false
						break
					}
					marginal += sub
					adds = append(adds, subPick...)
				}
				if !feasible {
					continue
				}
				idx := len(alts)
				alts = append(alts, altInfo{class: c, node: i, cur: cur, gain: cur - marginal, adds: adds})
				for _, a := range adds {
					interested[a.class] = append(interested[a.class], idx)
					hubCandidate[a.class] = true
				}
			}
		}
		improved := false
		base := make([]bool, m)
		for hub := 0; hub < m && !improved; hub++ {
			if required[hub] || !hubCandidate[hub] || len(s.allowed[hub]) == 0 {
				continue
			}
			addCost, addPick, ok := s.marginalClosure(hub, required)
			if !ok || math.IsInf(addCost, 1) || addCost <= boundAdjust {
				// Free or impossible hubs cannot change the economics.
				continue
			}
			copy(base, required)
			for _, a := range addPick {
				base[a.class] = true
			}
			// Re-evaluate only the alternatives whose support intersects
			// the hub's completion.
			candIdx := interested[hub]
			for _, a := range addPick {
				candIdx = append(candIdx, interested[a.class]...)
			}
			type switchMove struct {
				class, node int
				gain        float64
				adds        []addEntry
			}
			bestByClass := make(map[int]switchMove)
			seenAlt := make(map[int]bool)
			for _, idx := range candIdx {
				if seenAlt[idx] {
					continue
				}
				seenAlt[idx] = true
				ai := alts[idx]
				marginal := s.p.Costs[ai.node]
				var adds []addEntry
				feasible := true
				for _, h := range s.p.Children[ai.node] {
					if base[h] {
						continue
					}
					sub, subPick, okc := s.marginalClosureSeen(h, base, adds)
					if !okc {
						feasible = false
						break
					}
					marginal += sub
					adds = append(adds, subPick...)
				}
				if !feasible {
					continue
				}
				if gain := ai.cur - marginal; gain > bestByClass[ai.class].gain+boundAdjust {
					bestByClass[ai.class] = switchMove{class: ai.class, node: ai.node, gain: gain, adds: adds}
				}
			}
			// Sum in class order: a float sum in map order could differ
			// from run to run.
			var moves []switchMove
			for _, mv := range bestByClass {
				moves = append(moves, mv)
			}
			slices.SortFunc(moves, func(a, b switchMove) int { return a.class - b.class })
			savings := 0.0
			for _, mv := range moves {
				savings += mv.gain
			}
			if savings <= addCost+boundAdjust || len(moves) == 0 {
				continue
			}
			// Commit tentatively, with an undo log.
			var undo []addEntry
			set := func(c, n int) {
				undo = append(undo, addEntry{c, pick[c]})
				pick[c] = n
			}
			for _, a := range addPick {
				set(a.class, a.node)
			}
			for _, mv := range moves {
				set(mv.class, mv.node)
				for _, a := range mv.adds {
					if pick[a.class] < 0 || !required[a.class] {
						set(a.class, a.node)
					}
				}
			}
			s.fillFreeFrom(pick, undo)
			if cost, okc := s.ev.cost(pick); okc && cost < curCost-boundAdjust {
				improved = true
				s.improveCommits++
			} else {
				for k := len(undo) - 1; k >= 0; k-- {
					pick[undo[k].class] = undo[k].node
				}
			}
		}
		if !improved {
			break
		}
	}

	cost, ok := s.ev.cost(pick)
	if !ok {
		return pick, math.Inf(1)
	}
	s.ev.trim(pick)
	return pick, cost
}

// singleSwitchSweep tries replacing one selected class's pick with
// each alternative (greedily completing new requirements) and commits
// the first full-validation improvement on cur, pick's cost. Returns
// whether it improved.
func (s *solver) singleSwitchSweep(pick []int, required []bool, cur float64) bool {
	for c := range s.p.Classes {
		if !required[c] || len(s.allowed[c]) < 2 {
			continue
		}
		for _, i := range s.allowed[c] {
			if i == pick[c] {
				continue
			}
			var undo []addEntry
			set := func(cc, n int) {
				undo = append(undo, addEntry{cc, pick[cc]})
				pick[cc] = n
			}
			rollback := func() {
				for k := len(undo) - 1; k >= 0; k-- {
					pick[undo[k].class] = undo[k].node
				}
			}
			set(c, i)
			feasible := true
			for _, h := range s.p.Children[i] {
				if h == c {
					feasible = false
					break
				}
				if required[h] {
					continue
				}
				_, adds, ok := s.marginalClosure(h, required)
				if !ok {
					feasible = false
					break
				}
				for _, a := range adds {
					if pick[a.class] < 0 || !required[a.class] {
						set(a.class, a.node)
					}
				}
			}
			if !feasible {
				rollback()
				continue
			}
			s.fillFreeFrom(pick, undo)
			if cost, ok := s.ev.cost(pick); ok && cost < cur-boundAdjust {
				s.improveCommits++
				return true
			}
			rollback()
		}
	}
	return false
}

// marginalClosure computes the cheapest completion of class c on top
// of the base set: the extra classes that must be selected and their
// total cost. Free classes complete through freePick at zero cost.
func (s *solver) marginalClosure(c int, base []bool) (float64, []addEntry, bool) {
	return s.marginalClosureSeen(c, base, nil)
}

// marginalClosureSeen is marginalClosure with extra already-completed
// entries (from sibling completions) treated as zero-cost base.
func (s *solver) marginalClosureSeen(c int, base []bool, already []addEntry) (float64, []addEntry, bool) {
	sc := s.ev
	sc.next()
	inSet, onStack := sc.epoch, sc.epoch+1
	for _, a := range already {
		sc.mark[a.class] = inSet
	}
	var adds []addEntry
	budget := 512 // completions larger than this are never profitable hubs
	var rec func(h int) (float64, bool)
	rec = func(h int) (float64, bool) {
		if base[h] || sc.mark[h] == inSet {
			return 0, true
		}
		if budget--; budget < 0 {
			return 0, false
		}
		if sc.state[h] == onStack {
			return 0, false // cycle
		}
		sc.state[h] = onStack
		defer func() { sc.state[h] = 0 }()
		if f := s.freePick[h]; f >= 0 {
			sc.mark[h] = inSet
			adds = append(adds, addEntry{h, f})
			for _, ch := range s.p.Children[f] {
				if _, ok := rec(ch); !ok {
					return 0, false
				}
			}
			return 0, true
		}
		// Choose the node with the least marginal cost by the static
		// tree heuristic, then recurse.
		bestNode, bestHeur := -1, math.Inf(1)
		for _, i := range s.allowed[h] {
			t := s.p.Costs[i]
			for _, ch := range s.p.Children[i] {
				if !base[ch] && sc.mark[ch] != inSet {
					t += s.greedy[ch]
				}
			}
			if t < bestHeur {
				bestHeur, bestNode = t, i
			}
		}
		if bestNode < 0 {
			return 0, false
		}
		sc.mark[h] = inSet
		adds = append(adds, addEntry{h, bestNode})
		total := s.p.Costs[bestNode]
		for _, ch := range s.p.Children[bestNode] {
			sub, ok := rec(ch)
			if !ok {
				return 0, false
			}
			total += sub
		}
		return total, true
	}
	cost, ok := rec(c)
	if !ok {
		return 0, nil, false
	}
	return cost, adds, true
}

// fillFreeFrom assigns freePick derivations for classes referenced by
// recently changed picks but still unpicked, recording assignments in
// the undo log via direct append (callers roll back through pick).
func (s *solver) fillFreeFrom(pick []int, changed []addEntry) {
	var ensure func(h int)
	ensure = func(h int) {
		if pick[h] >= 0 {
			return
		}
		if f := s.freePick[h]; f >= 0 {
			pick[h] = f
			for _, ch := range s.p.Children[f] {
				ensure(ch)
			}
		}
	}
	for _, e := range changed {
		if pick[e.class] < 0 {
			continue
		}
		for _, h := range s.p.Children[pick[e.class]] {
			ensure(h)
		}
	}
}
