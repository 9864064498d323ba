package rewrite_test

import (
	"context"
	"testing"
	"time"

	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

// TestStopCause reaches each of the five ways exploration ends and
// checks the run records exactly that one cause.
func TestStopCause(t *testing.T) {
	sum := func() *tensor.Graph {
		b := tensor.NewBuilder()
		return b.MustFinish(b.Ewadd(b.Input("x", 4, 4), b.Input("y", 4, 4)))
	}
	comm := func() []*rewrite.Rule {
		return []*rewrite.Rule{rewrite.MustRule("comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")}
	}
	bert := func() *tensor.Graph { return models.BERT(models.ScaleTest) }
	// sleepy never rewrites, and each match it checks outlives the
	// 10 ms budget the timeout case gives.
	sleepy := func() []*rewrite.Rule {
		r := rewrite.MustRule("gated", "(ewadd ?x ?y)", "(ewadd ?y ?x)")
		r.Cond = func(func(string) *tensor.Meta) bool {
			time.Sleep(30 * time.Millisecond)
			return false
		}
		return []*rewrite.Rule{r}
	}

	cases := []struct {
		name     string
		graph    func() *tensor.Graph
		rules    func() []*rewrite.Rule
		lim      rewrite.Limits
		cancelAt int // cancel the run's context once this iteration ends; 0 never
		want     rewrite.StopReason
	}{
		{"saturated", sum, comm, rewrite.Limits{MaxIters: 15}, 0, rewrite.StopSaturated},
		{"iter_limit", sum, comm, rewrite.Limits{MaxIters: 1}, 0, rewrite.StopIterLimit},
		// The last allowed iteration fills the e-graph: the node limit,
		// not the iteration limit, is why the run ends.
		{"node_limit", bert, rules.Default, rewrite.Limits{MaxNodes: 1500, MaxIters: 4, KMulti: 1}, 0, rewrite.StopNodeLimit},
		// The deadline passes in the last allowed iteration.
		{"timeout", sum, sleepy, rewrite.Limits{MaxIters: 1, Timeout: 10 * time.Millisecond}, 0, rewrite.StopTimeout},
		{"canceled", sum, comm, rewrite.Limits{MaxIters: 15}, 1, rewrite.StopCanceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := rewrite.NewRunner(tc.rules())
			r.Limits = tc.lim
			r.Progress = func(iteration, _, _ int) {
				if tc.cancelAt > 0 && iteration == tc.cancelAt {
					cancel()
				}
			}
			ex, err := r.RunContext(ctx, tc.graph())
			if err != nil {
				t.Fatal(err)
			}
			if ex.Stats.Stop != tc.want {
				t.Fatalf("Stop = %q, want %q: %+v", ex.Stats.Stop, tc.want, ex.Stats)
			}
			if tc.want == rewrite.StopNodeLimit && ex.Stats.ENodes < tc.lim.MaxNodes {
				t.Fatalf("node limit recorded with %d of %d e-nodes", ex.Stats.ENodes, tc.lim.MaxNodes)
			}
		})
	}
}
