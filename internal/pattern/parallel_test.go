package pattern

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// buildSaturatedEGraph makes an e-graph with enough merged classes that
// path compression would fire on almost every Find: a chain of ewadds
// over many inputs, with the inputs pairwise unioned.
func buildSaturatedEGraph(t testing.TB) *egraph.EGraph {
	t.Helper()
	g := egraph.New(nil)
	var inputs []egraph.ClassID
	for i := 0; i < 24; i++ {
		inputs = append(inputs, g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), fmt.Sprintf("x%d@4", i))))
	}
	prev := inputs[0]
	for _, in := range inputs[1:] {
		prev = g.Add(egraph.NewNode(egraph.Op(tensor.OpEwadd), prev, in))
		g.Add(egraph.NewNode(egraph.Op(tensor.OpEwmul), in, prev))
		g.Add(egraph.NewNode(egraph.Op(tensor.OpRelu), in))
	}
	// Merge input pairs so many ewadd/ewmul nodes become congruent and
	// the union-find develops real chains.
	for i := 0; i+1 < len(inputs); i += 2 {
		g.Union(inputs[i], inputs[i+1])
	}
	g.Rebuild()
	return g
}

// matchKey renders a match canonically (through src) for multiset
// comparison.
func matchKey(src Source, m Match) string {
	keys := make([]string, 0, len(m.Subst))
	for k, v := range m.Subst {
		keys = append(keys, fmt.Sprintf("%s=e%d", k, src.Find(v)))
	}
	sort.Strings(keys)
	return fmt.Sprintf("e%d|%v", src.Find(m.Class), keys)
}

func sortedKeys(src Source, ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = matchKey(src, m)
	}
	sort.Strings(out)
	return out
}

// TestParallelSearchMatchesSequential runs many goroutines over one
// frozen view (whole-view searches plus sharded scans) and checks every
// one reproduces the sequential Search result exactly. Run under -race
// this also proves the view is read-only in practice.
func TestParallelSearchMatchesSequential(t *testing.T) {
	g := buildSaturatedEGraph(t)
	pats := []*Pat{
		MustParse("(ewadd ?a ?b)"),
		MustParse("(ewmul ?a (ewadd ?b ?c))"),
		MustParse("(relu ?x)"),
		MustParse("(ewadd (ewadd ?a ?b) ?c)"),
	}
	seq := make([][]string, len(pats))
	for i, p := range pats {
		seq[i] = sortedKeys(mutable{g}, Search(g, p))
		if len(seq[i]) == 0 && i != 1 {
			t.Fatalf("pattern %d found nothing; workload too weak", i)
		}
	}

	view := g.Freeze()
	classes := view.Classes()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, p := range pats {
				var got []Match
				if w%2 == 0 {
					got = SearchView(view, p)
				} else {
					// Sharded scan: quarters concatenated in order.
					for lo := 0; lo < len(classes); lo += (len(classes) + 3) / 4 {
						hi := lo + (len(classes)+3)/4
						if hi > len(classes) {
							hi = len(classes)
						}
						got = append(got, SearchClasses(view, p, classes[lo:hi])...)
					}
				}
				if keys := sortedKeys(view, got); !equalStrings(keys, seq[i]) {
					t.Errorf("worker %d pattern %d: parallel found %d matches, sequential %d",
						w, i, len(keys), len(seq[i]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if g.Freeze().Version() != view.Version() {
		t.Fatal("searching marked the view stale: something mutated the e-graph")
	}
}

// TestSearchViewOrderIdentical checks the stronger property the runner
// relies on for deterministic exploration: not just the same multiset,
// but the same order of matches.
func TestSearchViewOrderIdentical(t *testing.T) {
	g := buildSaturatedEGraph(t)
	p := MustParse("(ewadd ?a ?b)")
	seq := Search(g, p)
	view := g.Freeze()
	par := SearchView(view, p)
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Class != par[i].Class || matchKey(mutable{g}, seq[i]) != matchKey(view, par[i]) {
			t.Fatalf("match %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
