package tensat_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tensat"
	"tensat/internal/tensor"
)

// figure2Graph builds the paper's motivating example.
func figure2Graph(t testing.TB) *tensat.Graph {
	t.Helper()
	b := tensat.NewBuilder()
	x := b.Input("x", 64, 256)
	w1 := b.Weight("w1", 256, 256)
	w2 := b.Weight("w2", 256, 256)
	g, err := b.Finish(b.Matmul(tensat.ActNone, x, w1), b.Matmul(tensat.ActNone, x, w2))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOptimizeDefault(t *testing.T) {
	g := figure2Graph(t)
	res, err := tensat.Optimize(g, tensat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupPercent <= 0 {
		t.Fatalf("no speedup: %+v", res)
	}
	if res.OptCost >= res.OrigCost {
		t.Fatalf("cost did not drop: %v -> %v", res.OrigCost, res.OptCost)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if h := res.Graph.OpHistogram(); h[tensor.OpMatmul] != 1 {
		t.Fatalf("expected the merged matmul, got %v", tensor.HistogramString(h))
	}
}

func TestOptimizeGreedyExtractor(t *testing.T) {
	g := figure2Graph(t)
	opt := tensat.DefaultOptions()
	opt.Extractor = tensat.ExtractGreedy
	res, err := tensat.Optimize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy cannot see the sharing win (§6.5): it keeps two matmuls.
	if h := res.Graph.OpHistogram(); h[tensor.OpMatmul] != 2 {
		t.Fatalf("greedy unexpectedly merged: %v", tensor.HistogramString(h))
	}
}

func TestOptimizeFilterModes(t *testing.T) {
	g := figure2Graph(t)
	costs := map[tensat.CycleFilter]float64{}
	for _, f := range []tensat.CycleFilter{tensat.FilterEfficient, tensat.FilterVanilla, tensat.FilterNone} {
		opt := tensat.DefaultOptions()
		opt.CycleFilter = f
		opt.ILPTimeout = time.Minute
		res, err := tensat.Optimize(g, opt)
		if err != nil {
			t.Fatalf("filter %v: %v", f, err)
		}
		costs[f] = res.OptCost
	}
	if costs[tensat.FilterEfficient] != costs[tensat.FilterVanilla] {
		t.Fatalf("efficient (%v) and vanilla (%v) disagree",
			costs[tensat.FilterEfficient], costs[tensat.FilterVanilla])
	}
	if diff := costs[tensat.FilterEfficient] - costs[tensat.FilterNone]; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("cycle-constrained ILP (%v) and filtered ILP (%v) disagree",
			costs[tensat.FilterNone], costs[tensat.FilterEfficient])
	}
}

func TestOptimizeCustomRulesAndModel(t *testing.T) {
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 8)
	g, err := b.Finish(b.Relu(b.Relu(x)))
	if err != nil {
		t.Fatal(err)
	}
	rule, err := tensat.NewRule("relu-idem", "(relu (relu ?x))", "(relu ?x)")
	if err != nil {
		t.Fatal(err)
	}
	opt := tensat.DefaultOptions()
	opt.Rules = []*tensat.Rule{rule}
	res, err := tensat.Optimize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h := res.Graph.OpHistogram(); h[tensor.OpRelu] != 1 {
		t.Fatalf("idempotence not applied: %v", tensor.HistogramString(h))
	}
}

func TestOptimizeContextCanceled(t *testing.T) {
	g := figure2Graph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tensat.OptimizeContext(ctx, g, tensat.DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptimizeContextDeadline(t *testing.T) {
	g := figure2Graph(t)
	// A deadline that has effectively already passed must abort the
	// pipeline with DeadlineExceeded, however far it got.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := tensat.OptimizeContext(ctx, g, tensat.DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestOptimizeContextPlainBackground(t *testing.T) {
	g := figure2Graph(t)
	res, err := tensat.OptimizeContext(context.Background(), g, tensat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.OptCost >= res.OrigCost {
		t.Fatalf("cost did not drop: %v -> %v", res.OrigCost, res.OptCost)
	}
}

func TestOptimizeNilGraph(t *testing.T) {
	if _, err := tensat.Optimize(nil, tensat.DefaultOptions()); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestNewRuleRejectsMalformedPattern(t *testing.T) {
	if _, err := tensat.NewRule("bad", "(relu ?x", "?x"); err == nil {
		t.Fatal("malformed pattern accepted")
	}
}

func TestDefaultRulesNonEmpty(t *testing.T) {
	rs := tensat.DefaultRules()
	if len(rs) < 40 {
		t.Fatalf("only %d default rules", len(rs))
	}
}

func TestResultStringOutput(t *testing.T) {
	g := figure2Graph(t)
	res, err := tensat.Optimize(g, tensat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Graph.String()
	if !strings.Contains(s, "matmul") || !strings.Contains(s, "concat2") {
		t.Fatalf("unexpected graph rendering:\n%s", s)
	}
}
