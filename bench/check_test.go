package main

import (
	"strings"
	"testing"

	"tensat"
)

// twoMatmuls builds op(x·w1, x·w2): the paper's figure-2 input when op
// is an add.
func twoMatmuls(t *testing.T, mul bool) *tensat.Graph {
	t.Helper()
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 16)
	l := b.Matmul(tensat.ActNone, x, b.Weight("w1", 16, 16))
	r := b.Matmul(tensat.ActNone, x, b.Weight("w2", 16, 16))
	out := b.Ewadd(l, r)
	if mul {
		out = b.Ewmul(l, r)
	}
	g, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckerAcceptsOptimizerOutput(t *testing.T) {
	in := twoMatmuls(t, false)
	res, err := tensat.Optimize(in, tensat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.OptCost >= res.OrigCost {
		t.Fatalf("the optimizer did not improve the graph (%v -> %v); the test needs a changed output", res.OrigCost, res.OptCost)
	}
	c := newChecker()
	c.result("good", "fp", in, res.Graph, res.OrigCost, res.OptCost, true, true)
	c.result("good again", "fp", in, res.Graph, res.OrigCost, res.OptCost, true, true)
	if len(c.failures) > 0 {
		t.Fatalf("a correct result failed the check: %v", c.failures)
	}
	if c.checked != 1 {
		t.Fatalf("executed %d outputs, want 1: a repeated answer is verified once", c.checked)
	}
}

func TestCheckerRejectsCorruptedReplies(t *testing.T) {
	in := twoMatmuls(t, false)
	res, err := tensat.Optimize(in, tensat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wrong := twoMatmuls(t, true) // same leaves and shapes, another function
	wrongCost := tensat.GraphCost(tensat.DefaultCostModel(), wrong)
	for _, c := range []struct {
		name string
		run  func(*checker)
		want string
	}{
		{"another function", func(c *checker) {
			c.result("r", "fp", in, wrong, res.OrigCost, wrongCost, false, true)
		}, "differs by relative"},
		{"misreported cost", func(c *checker) {
			c.result("r", "fp", in, res.Graph, res.OrigCost, res.OptCost*0.9, true, true)
		}, "optimizer reported"},
		{"ILP costlier than its input", func(c *checker) {
			c.result("r", "fp", in, in, res.OptCost, res.OrigCost, true, true)
		}, "more than its input"},
		{"two full-quality answers for one key", func(c *checker) {
			c.result("r", "fp", in, res.Graph, res.OrigCost, res.OptCost, true, true)
			c.result("r", "fp", in, in, res.OrigCost, res.OrigCost, true, true)
		}, "answers for one input differ"},
	} {
		chk := newChecker()
		c.run(chk)
		if !strings.Contains(strings.Join(chk.failures, "\n"), c.want) {
			t.Errorf("%s: failures %q, want one containing %q", c.name, chk.failures, c.want)
		}
	}
}
