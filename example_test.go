package tensat_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tensat"
	"tensat/internal/tensor"
)

// Two matmuls sharing an input (the motivating example of the paper's
// Figure 2): equality saturation merges them into one matmul over
// concatenated weights, and split recovers the two outputs.
func ExampleOptimize() {
	b := tensat.NewBuilder()
	x := b.Input("x", 64, 256)
	w1 := b.Weight("w1", 256, 256)
	w2 := b.Weight("w2", 256, 256)
	g, err := b.Finish(b.Matmul(tensat.ActNone, x, w1), b.Matmul(tensat.ActNone, x, w2))
	if err != nil {
		log.Fatal(err)
	}

	res, err := tensat.Optimize(g, tensat.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original:  cost %.1f us\n", res.OrigCost)
	fmt.Printf("optimized: cost %.1f us (%.1f%% speedup)\n", res.OptCost, res.SpeedupPercent)
	fmt.Printf("%d e-nodes explored\n", res.ENodes)
	fmt.Println(res.Graph)
	// Output:
	// original:  cost 30.2 us
	// optimized: cost 17.2 us (75.6% speedup)
	// 43 e-nodes explored
	// (split0 (split 1 (matmul 0 (input "x@64 256") (concat2 1 (weight "w1@256 256") (weight "w2@256 256")))))
	// (split1 (split 1 (matmul 0 (input "x@64 256") (concat2 1 (weight "w1@256 256") (weight "w2@256 256")))))
}

// attention builds a transformer-style Q/K/V projection block over a
// seq x hid input: three matmuls reading the same tokens.
func attention(seq, hid int) (*tensat.Graph, error) {
	b := tensat.NewBuilder()
	x := b.Input("tokens", seq, hid)
	q := b.Matmul(tensat.ActNone, x, b.Weight("wq", hid, hid))
	k := b.Matmul(tensat.ActNone, x, b.Weight("wk", hid, hid))
	v := b.Matmul(tensat.ActNone, x, b.Weight("wv", hid, hid))
	scores := b.Matmul(tensat.ActNone, q, b.Transpose(k, 1, 0))
	return b.Finish(b.Matmul(tensat.ActNone, scores, v))
}

// One Optimizer serves many graphs: the rule set is compiled on the
// first Submit only. The multi-pattern rewrite of Figure 2 batches the
// attention block's three projections into one matmul, the
// optimization BERT benefits from in the paper's evaluation.
func ExampleOptimizer() {
	opt := tensat.NewOptimizer()
	for _, hid := range []int{128, 256} {
		g, err := attention(64, hid)
		if err != nil {
			log.Fatal(err)
		}
		job, err := opt.Submit(context.Background(), g, tensat.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		res, err := job.Result()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attention block (hid=%d): %.1f us -> %.1f us (%.1f%% speedup)\n",
			hid, res.OrigCost, res.OptCost, res.SpeedupPercent)
		fmt.Printf("e-graph: %d nodes, %d classes, %d exploration iterations\n",
			res.ENodes, res.EClasses, res.Iterations)
	}
	// Output:
	// attention block (hid=128): 75.6 us -> 62.0 us (21.8% speedup)
	// e-graph: 174 nodes, 75 classes, 5 exploration iterations
	// attention block (hid=256): 81.3 us -> 66.2 us (22.8% speedup)
	// e-graph: 174 nodes, 75 classes, 5 exploration iterations
}

// slowTanh wraps a base model, making standalone tanh kernels 50x
// more expensive: an accelerator without a native tanh unit, where
// only the fused matmul epilogue implements it efficiently.
type slowTanh struct{ base tensat.CostModel }

func (m slowTanh) NodeCost(op tensor.Op, ival int64, sval string, args []*tensor.Meta) float64 {
	c := m.base.NodeCost(op, ival, sval, args)
	if op == tensor.OpTanh {
		return c * 50
	}
	return c
}

func tanhMatmul() *tensat.Graph {
	b := tensat.NewBuilder()
	x := b.Input("x", 32, 512)
	w := b.Weight("w", 512, 512)
	return b.MustFinish(b.Tanh(b.Matmul(tensat.ActNone, x, w)))
}

// User-defined rules and cost models, two ways. First as Go objects
// on the Options: a rule set holding only activation fusion, priced
// by a device where standalone tanh is slow. Then the same hardware
// story as named, content-addressed profiles: a .rules file and a
// JSON device spec loaded into a Registry and selected by name, as a
// tensatd client selects them with "ruleset" and "cost_model".
func ExampleOptions_customRules() {
	fuse, err := tensat.NewRule("fuse-tanh", "(tanh (matmul 0 ?x ?y))", "(matmul 3 ?x ?y)")
	if err != nil {
		log.Fatal(err)
	}
	opt := tensat.DefaultOptions()
	opt.Rules = []*tensat.Rule{fuse}
	opt.CostModel = slowTanh{base: tensat.DefaultCostModel()}
	res, err := tensat.Optimize(tanhMatmul(), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with slow-tanh hardware: %.1f us -> %.1f us (%.1f%% speedup)\n",
		res.OrigCost, res.OptCost, res.SpeedupPercent)
	fmt.Printf("optimized graph: %v\n", res.Graph)
	if res.Graph.OpHistogram()[tensor.OpTanh] == 0 {
		fmt.Println("standalone tanh eliminated: the custom rule fused it into the matmul")
	}

	dir, err := os.MkdirTemp("", "tensat-profiles")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ruleFile := filepath.Join(dir, "fuse-only.rules")
	if err := os.WriteFile(ruleFile, []byte(
		"# only activation fusion\n"+
			"fuse-tanh: (tanh (matmul 0 ?x ?y)) => (matmul 3 ?x ?y)\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	deviceFile := filepath.Join(dir, "no-tanh-unit.json")
	if err := os.WriteFile(deviceFile, []byte(`{
		"name": "no-tanh-unit",
		"launch_us": 8.0,
		"peak_gflops": 4000,
		"mem_bw_gbps": 220,
		"fused_act_us": 0.5,
		"group_penalty": 0.25,
		"op_scale": {"tanh": 50}
	}`), 0o644); err != nil {
		log.Fatal(err)
	}

	registry := tensat.NewRegistry() // built-ins included
	rsInfo, err := registry.LoadRuleFile(ruleFile)
	if err != nil {
		log.Fatal(err)
	}
	cmInfo, err := registry.LoadDeviceFile(deviceFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered ruleset %q (hash %.12s) and costmodel %q (hash %.12s)\n",
		rsInfo.Name, rsInfo.Hash, cmInfo.Name, cmInfo.Hash)

	o := tensat.NewOptimizer(tensat.WithRegistry(registry))
	popt := tensat.DefaultOptions()
	popt.RuleSet = "fuse-only"
	popt.CostModelName = "no-tanh-unit"
	job, err := o.Submit(context.Background(), tanhMatmul(), popt)
	if err != nil {
		log.Fatal(err)
	}
	pres, err := job.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via named profiles:      %.1f us -> %.1f us (%.1f%% speedup)\n",
		pres.OrigCost, pres.OptCost, pres.SpeedupPercent)

	// An unknown profile fails the submission, listing what exists.
	bad := tensat.DefaultOptions()
	bad.RuleSet = "no-such-profile"
	_, err = o.Submit(context.Background(), tanhMatmul(), bad)
	fmt.Println(err)
	// Output:
	// with slow-tanh hardware: 447.0 us -> 17.7 us (2426.1% speedup)
	// optimized graph: (matmul 3 (input "x@32 512") (weight "w@512 512"))
	// standalone tanh eliminated: the custom rule fused it into the matmul
	// registered ruleset "fuse-only" (hash 87bbf6409d25) and costmodel "no-tanh-unit" (hash 7799ea20c927)
	// via named profiles:      447.0 us -> 17.7 us (2426.1% speedup)
	// tensat: unknown profile: rule set "no-such-profile" (known: fuse-only, taso-default, taso-single)
}
