package tensat_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
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

// writeProfileFile writes one profile file into a fresh directory and
// returns its path.
func writeProfileFile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOptimizeCustomRulesAndModel: a file-loaded rule set and device
// spec, selected by name, are what the run rewrites and prices with.
func TestOptimizeCustomRulesAndModel(t *testing.T) {
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 8)
	g, err := b.Finish(b.Relu(b.Relu(x)))
	if err != nil {
		t.Fatal(err)
	}
	r := tensat.NewRegistry()
	rs, err := r.LoadRuleFile(writeProfileFile(t, "idem.rules", "relu-idem: (relu (relu ?x)) => (relu ?x)\n"))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := r.LoadDeviceFile(writeProfileFile(t, "slow.json",
		`{"name": "slow", "launch_us": 100, "peak_gflops": 1, "mem_bw_gbps": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	opt := tensat.DefaultOptions()
	opt.RuleSet, opt.CostModelName = rs.Name, cm.Name
	job, err := tensat.NewOptimizer(tensat.WithRegistry(r)).Submit(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if h := res.Graph.OpHistogram(); h[tensor.OpRelu] != 1 {
		t.Fatalf("idempotence not applied: %v", tensor.HistogramString(h))
	}
	slow, _ := r.CostModel(cm.Name)
	if want := tensat.GraphCost(slow, g); res.OrigCost != want || want == tensat.GraphCost(tensat.DefaultCostModel(), g) {
		t.Fatalf("OrigCost = %v, want the slow device's %v", res.OrigCost, want)
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

// TestNewRuleRejectsMalformedPattern: a rule file holding a pattern
// that does not parse fails to load and registers nothing.
func TestNewRuleRejectsMalformedPattern(t *testing.T) {
	r := tensat.NewRegistry()
	if _, err := r.LoadRuleFile(writeProfileFile(t, "bad.rules", "bad: (relu ?x => ?x\n")); err == nil {
		t.Fatal("malformed pattern accepted")
	}
	if _, ok := r.RuleSet("bad"); ok {
		t.Fatal("malformed rule set registered")
	}
}

func TestDefaultRulesNonEmpty(t *testing.T) {
	info, ok := tensat.DefaultRegistry().RuleSetInfo(tensat.DefaultRuleSetName)
	if !ok || info.Rules < 40 {
		t.Fatalf("only %d default rules", info.Rules)
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

// Every extractor survives MarshalText → UnmarshalText; an unknown
// name leaves the value alone and lists the known ones.
func TestExtractorTextRoundTrip(t *testing.T) {
	for _, want := range []tensat.Extractor{tensat.ExtractILP, tensat.ExtractGreedy} {
		text, err := want.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got tensat.Extractor = -1
		if err := got.UnmarshalText(text); err != nil || got != want {
			t.Errorf("%q: UnmarshalText = %v, %v; want %v", text, got, err, want)
		}
	}
	got := tensat.ExtractGreedy
	if err := got.UnmarshalText([]byte("gredy")); err == nil || !strings.HasSuffix(err.Error(), `"gredy" (known: ilp, greedy)`) || got != tensat.ExtractGreedy {
		t.Errorf("unknown name: %v, value %v", err, got)
	}
	if _, err := tensat.Extractor(2).MarshalText(); err == nil {
		t.Error("an extractor with no name marshaled")
	}
}
