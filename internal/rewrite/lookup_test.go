package rewrite

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/pattern"
	"tensat/internal/tensor"
)

// TestTargetWalkAgreesWithApply is the differential test of the walk the
// rule loop runs on every match, on random e-graphs (search_test.go's
// generator over inputs and weights) that carry ShapeAnalysis, with
// unions still pending. A walk finds the target's root present exactly
// when applying its plan then adds nothing (Stamp unchanged), and both
// name the same class. Every node the plan adds carries the meta
// ShapeAnalysis.Make gives it, Foldable included. A second walk plans
// nothing and returns the class Apply did. Bindings are drawn mostly
// from one existing node's class and children, so a fair share of the
// walks hit.
func TestTargetWalkAgreesWithApply(t *testing.T) {
	cr := CompileRules(mixedRules())
	hits, misses, foldable := 0, 0, 0
	var plan pattern.Plan
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := egraph.New(ShapeAnalysis{})
		var ids []egraph.ClassID
		for i := 0; i < 30; i++ {
			op := tensor.OpInput
			if i%3 == 0 {
				op = tensor.OpWeight
			}
			ids = append(ids, g.Add(egraph.StrNode(egraph.Op(op), fmt.Sprintf("x%d@4 4", i))))
		}
		for round := 0; round < 20; round++ {
			mutate(rng, g, &ids)
			// Unions left pending: the memo then holds nodes under stale
			// children until the next Rebuild.
			for i := 0; i < rng.Intn(3); i++ {
				g.Union(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			}
			for probe := 0; probe < 10; probe++ {
				n := egraph.ClassID(rng.Int63n(g.Stamp()))
				pool := append([]egraph.ClassID{n}, g.Node(n).Children...)
				c := &cr.rules[rng.Intn(len(cr.rules))]
				bind := make([]egraph.ClassID, len(c.vars))
				for slot := range bind {
					if rng.Intn(4) == 0 {
						bind[slot] = ids[rng.Intn(len(ids))]
					} else {
						bind[slot] = pool[rng.Intn(len(pool))]
					}
				}
				for ti, tgt := range c.targets {
					stamp := g.Stamp()
					id, _, ok := tgt.Walk(g, bind, nil, &plan)
					if !ok || g.Stamp() != stamp {
						t.Fatalf("seed %d: Walk ok=%v, stamp %d -> %d", seed, ok, stamp, g.Stamp())
					}
					got := plan.Apply(g)
					if added := g.Stamp() != stamp; (id >= 0) == added {
						t.Fatalf("seed %d round %d target %d of %v: Walk found e%d, Apply added nodes=%v",
							seed, round, ti, c.vars, id, added)
					}
					if id >= 0 && id != got {
						t.Fatalf("seed %d round %d: Walk found e%d, Apply returned e%d", seed, round, id, got)
					}
					for nid := egraph.ClassID(stamp); int64(nid) < g.Stamp(); nid++ {
						m, want := ClassMeta(g, nid), ShapeAnalysis{}.Make(g, *g.Node(nid))
						if !reflect.DeepEqual(m, want) {
							t.Fatalf("seed %d round %d: %s added with meta %v, Make gives %v",
								seed, round, g.NodeString(*g.Node(nid)), m, want)
						}
						if m.Foldable {
							foldable++
						}
					}
					if again, _, ok := tgt.Walk(g, bind, nil, &plan); !ok || again != g.Find(got) {
						t.Fatalf("seed %d round %d: second Walk = e%d, %v; Apply returned e%d", seed, round, again, ok, got)
					}
					if id >= 0 {
						hits++
					} else {
						misses++
					}
				}
			}
		}
	}
	if hits < 100 || misses < 100 || foldable < 10 {
		t.Fatalf("walks not exercised every way: %d hits, %d misses, %d foldable nodes added", hits, misses, foldable)
	}
}
