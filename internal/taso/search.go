package taso

import (
	"bytes"
	"container/heap"
	"time"

	"tensat/internal/cost"
	"tensat/internal/fingerprint"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// Options configure the backtracking search; defaults follow the
// paper's §6.1 (n = 100 iterations, alpha = 1.0, with alpha = 1.05
// also evaluated).
type Options struct {
	// N is the number of search iterations (queue pops).
	N int
	// Alpha admits candidates whose cost is below Alpha * bestCost.
	Alpha float64
	// MaxMatchesPerRule bounds match enumeration per rule per graph.
	MaxMatchesPerRule int
	// Timeout bounds the whole search.
	Timeout time.Duration
}

// DefaultOptions mirrors TASO's artifact settings.
func DefaultOptions() Options {
	return Options{N: 100, Alpha: 1.0, MaxMatchesPerRule: 2000, Timeout: time.Hour}
}

// Result reports the search outcome.
type Result struct {
	Graph *tensor.Graph
	Cost  float64
	// TotalTime is the full search duration (the paper's "TASO total").
	TotalTime time.Duration
	// BestTime is when the best graph was first reached ("TASO best").
	BestTime time.Duration
	// Iterations is the number of queue pops performed.
	Iterations int
	// Candidates is the number of rewritten graphs generated.
	Candidates int
	// Trace records every improvement of the best cost, for
	// speedup-over-time curves (Figure 6).
	Trace []TracePoint
}

// TracePoint is one best-cost improvement during the search.
type TracePoint struct {
	At   time.Duration
	Cost float64
}

// queueItem is a candidate graph in the priority queue, with its
// fingerprint: the queue's tie-break and the search's identity.
type queueItem struct {
	g  *tensor.Graph
	c  float64
	fp fingerprint.Fingerprint
}

// less orders candidates totally, by cost and then fingerprint, so
// neither the order rules are listed in nor the heap's insertion order
// decides which of two equal-cost graphs comes first.
func (a queueItem) less(b queueItem) bool {
	if a.c != b.c {
		return a.c < b.c
	}
	return bytes.Compare(a.fp[:], b.fp[:]) < 0
}

type priorityQueue []queueItem

func (q priorityQueue) Len() int           { return len(q) }
func (q priorityQueue) Less(i, j int) bool { return q[i].less(q[j]) }
func (q priorityQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x any)        { *q = append(*q, x.(queueItem)) }
func (q *priorityQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Search runs TASO's cost-ordered backtracking search over graph
// substitutions (Algorithm 2 of Jia et al. 2019a). Graphs are known by
// their fingerprint, so two that differ only in tensor names are one
// candidate. Each pop is order-free: it collects every new candidate
// first, then takes the least as the best if it improves, and queues
// those under Alpha times the best cost from before the pop.
func Search(g *tensor.Graph, ruleset []*rewrite.Rule, model cost.Model, opts Options) (*Result, error) {
	start := time.Now()
	if opts.N == 0 {
		opts = DefaultOptions()
	}
	if opts.Alpha == 0 {
		opts.Alpha = 1.0
	}
	if opts.Timeout == 0 {
		opts.Timeout = time.Hour
	}
	deadline := start.Add(opts.Timeout)

	fp, err := fingerprint.Graph(g)
	if err != nil {
		return nil, err
	}
	best := queueItem{g: g, c: cost.GraphCost(model, g), fp: fp}
	bestAt := time.Duration(0)
	pq := &priorityQueue{best}
	seen := map[fingerprint.Fingerprint]bool{fp: true}

	res := &Result{Trace: []TracePoint{{At: 0, Cost: best.c}}}
	for pq.Len() > 0 && res.Iterations < opts.N && time.Now().Before(deadline) {
		item := heap.Pop(pq).(queueItem)
		res.Iterations++
		var found []queueItem
		for _, rule := range ruleset {
			for _, m := range FindMatches(item.g, rule, opts.MaxMatchesPerRule) {
				ng, err := Apply(item.g, m)
				if err != nil || ng == nil {
					continue
				}
				res.Candidates++
				fp, err := fingerprint.Graph(ng)
				if err != nil || seen[fp] {
					continue
				}
				seen[fp] = true
				found = append(found, queueItem{g: ng, c: cost.GraphCost(model, ng), fp: fp})
			}
			if time.Now().After(deadline) {
				break
			}
		}
		before := best
		for _, it := range found {
			if it.c < before.c && it.less(best) {
				best = it
			}
			if it.c < opts.Alpha*before.c {
				heap.Push(pq, it)
			}
		}
		if best.c < before.c {
			bestAt = time.Since(start)
			res.Trace = append(res.Trace, TracePoint{At: bestAt, Cost: best.c})
		}
	}
	res.Graph = best.g
	res.Cost = best.c
	res.TotalTime = time.Since(start)
	res.BestTime = bestAt
	return res, nil
}
