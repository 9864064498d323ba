package pattern_test

import (
	"context"
	"testing"

	"tensat/internal/models"
	"tensat/internal/pattern"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
)

// BenchmarkAppendMatches times one search pass of the default rule set's
// canonical patterns over NasRNN explored to 2,000 e-nodes: every
// program scans its op-index candidates of one frozen view, the way
// every iteration's search does on one worker. The
// match lists are reused, so a pass allocates nothing.
func BenchmarkAppendMatches(b *testing.B) {
	def := rules.Default()
	r := rewrite.NewRunner(def)
	r.Limits = rewrite.Limits{MaxNodes: 2000, MaxIters: 15, KMulti: 1}
	ex, err := r.RunContext(context.Background(), models.NasRNN(models.ScaleTest))
	if err != nil {
		b.Fatal(err)
	}
	_, progs := rewrite.CompileRules(def).CanonicalPatterns()
	v := ex.G.Freeze()
	lists := make([]pattern.Matches, len(progs))
	pass := func() (matches int) {
		for i, pr := range progs {
			cands := v.Classes()
			if op, ok := pr.RootOp(); ok {
				cands = v.ByOp(op)
			}
			lists[i].Reset()
			pr.AppendMatches(&lists[i], v, cands)
			matches += lists[i].Len()
		}
		return matches
	}
	pass() // grow the match lists
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches = pass()
	}
	b.ReportMetric(float64(matches), "matches")
}
