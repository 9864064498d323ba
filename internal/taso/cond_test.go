package taso_test

import (
	"slices"
	"testing"

	"tensat"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/taso"
	"tensat/internal/tensor"
)

// TestConditionalRewritesComputeSameValues holds both engines to the
// value of their input on graphs where a conditional rule matches but
// its condition fails, so only the condition keeps the rewrite from
// changing what the graph computes. Every graph TASO's Apply produces
// from a match of that rule, and the graph tensat.Optimize returns,
// must evaluate like the input under tensor.Evaluator.
func TestConditionalRewritesComputeSameValues(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rule  string // the conditional rule that matches
		graph func(b *tensor.Builder) *tensor.Graph
	}{
		{
			// "1 2 0" twice is not the identity on three axes.
			name: "transpose-not-inverse", rule: "transpose-inverse",
			graph: func(b *tensor.Builder) *tensor.Graph {
				x := b.Input("x", 4, 4, 4)
				return b.MustFinish(b.Transpose(b.Transpose(x, 1, 2, 0), 1, 2, 0))
			},
		},
		{
			// Four groups of two channels with cout 4 != C 8: merging
			// groups is defined only for cout == C.
			name: "gconv-cout-not-c", rule: "merge-gconv",
			graph: func(b *tensor.Builder) *tensor.Graph {
				x := b.Input("x", 1, 8, 6, 6)
				w := b.Weight("w", 4, 2, 3, 3)
				return b.MustFinish(b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, w))
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(tensor.NewBuilder())
			rs := rules.Default()
			i := slices.IndexFunc(rs, func(r *rewrite.Rule) bool { return r.Name == tc.rule })
			ms := taso.FindMatches(g, rs[i], 0)
			if len(ms) == 0 {
				t.Fatalf("%s does not match the graph", tc.rule)
			}
			for _, m := range ms {
				if out, err := taso.Apply(g, m); err == nil {
					sameValues(t, "taso.Apply", g, out)
				}
			}
			res, err := tensat.Optimize(g, tensat.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameValues(t, "tensat.Optimize", g, res.Graph)
		})
	}
}

func sameValues(t *testing.T, what string, orig, got *tensor.Graph) {
	t.Helper()
	a, err := tensor.NewEvaluator().EvalOutputs(orig)
	if err != nil {
		t.Fatalf("evaluating the input: %v", err)
	}
	b, err := tensor.NewEvaluator().EvalOutputs(got)
	if err != nil {
		t.Fatalf("%s: evaluating its graph: %v", what, err)
	}
	for i := range a {
		if d := a[i].MaxRelDiff(b[i]); d > 1e-8 {
			t.Errorf("%s: output %d differs by relative %.3g", what, i, d)
		}
	}
}
