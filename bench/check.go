package main

import (
	"fmt"
	"math"

	"tensat"
	"tensat/internal/tensor"
)

// maxRelDiff is the tolerance of internal/rules/soundness_test.go:
// rewrites reassociate long reductions, so rounding drift grows with
// the magnitude of the values.
const maxRelDiff = 1e-8

// checker verifies optimizer outputs outside the timed region and
// collects what failed. Each distinct (input, output) pair is executed
// once, however many requests returned it.
type checker struct {
	model    tensat.CostModel
	seen     map[string]bool   // input fingerprint + output text already verified
	answers  map[string]string // input fingerprint → first full-quality output text
	checked  int
	failures []string
}

func newChecker() *checker {
	return &checker{
		model:   tensat.DefaultCostModel(),
		seen:    make(map[string]bool),
		answers: make(map[string]string),
	}
}

func (c *checker) failf(format string, args ...any) {
	// Keep the report readable when one bug fails every request.
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// equivalent executes both graphs on the same pseudo-random leaves and
// compares every output.
func equivalent(in, out *tensat.Graph) error {
	if len(in.Outputs) != len(out.Outputs) {
		return fmt.Errorf("output count changed: %d -> %d", len(in.Outputs), len(out.Outputs))
	}
	// The zoo's convolution stacks take seconds to execute; the two
	// sides are independent, so they run on two cores.
	var b []*tensor.Tensor
	var berr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		b, berr = tensor.NewEvaluator().EvalOutputs(out)
	}()
	a, err := tensor.NewEvaluator().EvalOutputs(in)
	<-done
	if err != nil {
		return fmt.Errorf("evaluating input: %w", err)
	}
	if berr != nil {
		return fmt.Errorf("evaluating output: %w", berr)
	}
	for i := range a {
		if d := a[i].MaxRelDiff(b[i]); !(d <= maxRelDiff) {
			return fmt.Errorf("output %d differs by relative %v (shapes %v vs %v)", i, d, a[i].Shape, b[i].Shape)
		}
	}
	return nil
}

// result checks one optimization outcome: the output computes the same
// function as the input, costs what the optimizer said it costs, and —
// for ILP extraction, which is warm-started with the input graph —
// costs no more than the input. fullQuality marks an answer that must
// agree with every other full-quality answer for the same input.
func (c *checker) result(what, fp string, in, out *tensat.Graph, origCost, optCost float64, ilp, fullQuality bool) {
	text, err := out.MarshalText()
	if err != nil {
		c.failf("%s: marshaling output: %v", what, err)
		return
	}
	if fullQuality {
		if first, ok := c.answers[fp]; !ok {
			c.answers[fp] = string(text)
		} else if first != string(text) {
			c.failf("%s: full-quality answers for one input differ:\n%s\nvs\n%s", what, first, text)
		}
	}
	key := fp + "\x00" + string(text)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.checked++
	if err := equivalent(in, out); err != nil {
		c.failf("%s: %v", what, err)
	}
	if got := tensat.GraphCost(c.model, out); relDiff(got, optCost) > 1e-9 {
		c.failf("%s: output graph costs %v, optimizer reported %v", what, got, optCost)
	}
	if got := tensat.GraphCost(c.model, in); relDiff(got, origCost) > 1e-9 {
		c.failf("%s: input graph costs %v, optimizer reported %v", what, got, origCost)
	}
	if ilp && optCost > origCost*(1+1e-9) {
		c.failf("%s: ILP output costs %v, more than its input %v", what, optCost, origCost)
	}
}
