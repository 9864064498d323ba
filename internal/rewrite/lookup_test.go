package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"tensat/internal/egraph"
	"tensat/internal/tensor"
)

// TestTargetLookupAgreesWithInstantiate is the differential test of the
// probe the rule loop runs before checking a match: on random e-graphs
// (incremental_test.go's generator) with unions still pending, a
// target's Lookup reports ok exactly when Instantiate then adds nothing
// (Stamp unchanged), and both return the same class. Bindings are drawn
// mostly from one existing node's class and children, so a fair share
// of the probes hit.
func TestTargetLookupAgreesWithInstantiate(t *testing.T) {
	cr := CompileRules(incrementalRules())
	hits, misses := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := egraph.New(nil)
		var ids []egraph.ClassID
		for i := 0; i < 30; i++ {
			ids = append(ids, g.Add(egraph.StrNode(egraph.Op(tensor.OpInput), fmt.Sprintf("x%d", i))))
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
					id, ok := tgt.Lookup(g, bind, nil)
					if g.Stamp() != stamp {
						t.Fatalf("seed %d: Lookup added a node", seed)
					}
					got := tgt.Instantiate(g, bind, nil)
					if added := g.Stamp() != stamp; ok == added {
						t.Fatalf("seed %d round %d target %d of %v: Lookup ok=%v, Instantiate added nodes=%v",
							seed, round, ti, c.vars, ok, added)
					}
					if ok && id != got {
						t.Fatalf("seed %d round %d: Lookup found e%d, Instantiate returned e%d", seed, round, id, got)
					}
					if ok {
						hits++
					} else {
						misses++
					}
				}
			}
		}
	}
	if hits < 100 || misses < 100 {
		t.Fatalf("probes not exercised both ways: %d hits, %d misses", hits, misses)
	}
}
