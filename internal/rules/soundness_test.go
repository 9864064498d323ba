package rules

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

// TestOptimizedGraphsComputeSameValues is the end-to-end soundness
// property behind §2.3's guarantee ("the extracted term is guaranteed
// (if the rewrites themselves are sound) to be equivalent to the input
// term"): for every benchmark model, the extracted graph must compute
// numerically identical outputs to the original on deterministic
// pseudo-random inputs. This exercises every rewrite rule family, the
// multi-pattern algorithm, cycle filtering, extraction, and the
// reference interpreter together. Four more rows run multi-pattern
// rules for two or three iterations, where splits over merged
// concats pile up: each once extracted an ill-shaped graph, or none.
func TestOptimizedGraphsComputeSameValues(t *testing.T) {
	type row struct {
		model         string
		kmulti, iters int
		nodes         int
		filter        rewrite.FilterMode
	}
	var rows []row
	for _, m := range models.Benchmarks() {
		rows = append(rows, row{m.Name, 1, 8, 8000, rewrite.FilterEfficient})
	}
	rows = append(rows,
		row{"NasNet-A", 2, 15, 3000, rewrite.FilterNone},
		row{"SqueezeNet", 2, 15, 10000, rewrite.FilterEfficient},
		row{"ResNeXt-50", 3, 15, 10000, rewrite.FilterEfficient},
		row{"BERT", 2, 15, 20000, rewrite.FilterEfficient})
	for _, tc := range rows {
		name := tc.model
		if tc.kmulti > 1 {
			name = fmt.Sprintf("%s_kmulti%d", tc.model, tc.kmulti)
		}
		t.Run(name, func(t *testing.T) {
			m, err := models.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			g := m.Build(models.ScaleTest)
			r := rewrite.NewRunner(Default())
			r.Filter = tc.filter
			r.Limits.KMulti = tc.kmulti
			r.Limits.MaxIters = tc.iters
			r.Limits.MaxNodes = tc.nodes
			ex, err := r.RunContext(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := extract.ILPContext(context.Background(), ex, cost.NewT4(), extract.ILPOptions{
				CycleConstraints: tc.filter == rewrite.FilterNone, Timeout: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			compareOutputs(t, g, res.Graph)
		})
	}
}

// TestGreedyExtractionIsSound runs the same property through the
// greedy extractor.
func TestGreedyExtractionIsSound(t *testing.T) {
	for _, name := range []string{"NasRNN", "SqueezeNet"} {
		m, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := m.Build(models.ScaleTest)
		r := rewrite.NewRunner(Default())
		r.Limits.KMulti = 1
		r.Limits.MaxIters = 6
		r.Limits.MaxNodes = 6000
		ex, err := r.RunContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := extract.GreedyContext(context.Background(), ex, cost.NewT4())
		if err != nil {
			t.Fatal(err)
		}
		compareOutputs(t, g, res.Graph)
	}
}

// TestCycleConstrainedExtractionIsSound runs the property through the
// unfiltered exploration + cycle-constrained ILP path.
func TestCycleConstrainedExtractionIsSound(t *testing.T) {
	m, err := models.ByName("BERT")
	if err != nil {
		t.Fatal(err)
	}
	g := m.Build(models.ScaleTest)
	r := rewrite.NewRunner(Default())
	r.Filter = rewrite.FilterNone
	r.Limits.KMulti = 1
	r.Limits.MaxIters = 4
	r.Limits.MaxNodes = 2000
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := extract.ILPContext(context.Background(), ex, cost.NewT4(), extract.ILPOptions{
		CycleConstraints: true, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, g, res.Graph)
}

func compareOutputs(t *testing.T, orig, opt *tensor.Graph) {
	t.Helper()
	if len(orig.Outputs) != len(opt.Outputs) {
		t.Fatalf("output count changed: %d -> %d", len(orig.Outputs), len(opt.Outputs))
	}
	a, err := tensor.NewEvaluator().EvalOutputs(orig)
	if err != nil {
		t.Fatalf("evaluating original: %v", err)
	}
	b, err := tensor.NewEvaluator().EvalOutputs(opt)
	if err != nil {
		t.Fatalf("evaluating optimized: %v", err)
	}
	for i := range a {
		// Relative tolerance: rewrites reassociate long reductions, and
		// magnitudes grow through matmul chains, so rounding drift is
		// proportional to value size.
		if d := a[i].MaxRelDiff(b[i]); d > 1e-8 {
			t.Errorf("output %d differs by relative %v (shapes %v vs %v)",
				i, d, a[i].Shape, b[i].Shape)
		}
	}
}
