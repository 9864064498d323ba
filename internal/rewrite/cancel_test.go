package rewrite

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tensat/internal/tensor"
)

// manyMatmulGraph builds n matmuls sharing one input, so the 2-source
// merge rule's cartesian product has n*n combinations.
func manyMatmulGraph(t *testing.T, n int) *tensor.Graph {
	t.Helper()
	b := tensor.NewBuilder()
	x := b.Input("x", 8, 32)
	outs := make([]*tensor.Node, n)
	for i := range outs {
		w := b.Weight(fmt.Sprintf("w%d", i), 32, 16)
		outs[i] = b.Matmul(tensor.ActNone, x, w)
	}
	return b.MustFinish(outs...)
}

// TestCancelAbortsMultiEnumeration cancels the context from inside the
// rule condition a few combinations into a large cartesian product and
// checks the whole recursion unwinds promptly: before the abort-flag
// fix, the %256 deadline check only returned from the current frame,
// so sibling branches kept enumerating (and evaluating conditions)
// until the product was exhausted.
func TestCancelAbortsMultiEnumeration(t *testing.T) {
	const n = 60 // 3600 combinations
	g := manyMatmulGraph(t, n)
	rule := MustMultiRule("merge",
		"(matmul ?a ?x ?y) (matmul ?a ?x ?z)",
		"(split0 (split 1 (matmul ?a ?x (concat2 1 ?y ?z)))) (split1 (split 1 (matmul ?a ?x (concat2 1 ?y ?z))))")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls, afterCancel := 0, 0
	rule.Cond = func(func(string) *tensor.Meta) bool {
		calls++
		if calls == 5 {
			cancel()
		} else if calls > 5 {
			afterCancel++
		}
		return false // never rewrite: isolate enumeration behavior
	}

	r := NewRunner([]*Rule{rule})
	r.Limits.KMulti = 1
	ex, err := r.RunContext(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop != StopCanceled {
		t.Fatalf("cancellation not reported: %+v", ex.Stats)
	}
	if ex.Stats.Stop == StopSaturated {
		t.Fatalf("canceled run reported Saturated: %+v", ex.Stats)
	}
	// The cancellation check fires every 256 recursion visits, so at
	// most a few hundred more conditions may run; exhausting the
	// product would run ~3600.
	if afterCancel > 1000 {
		t.Fatalf("enumeration continued after cancel: %d more condition calls", afterCancel)
	}
}

// TestCanceledRunNeverSaturated cancels during an iteration that makes
// no changes: before the fix, explore saw "no unions" and reported
// Saturated even though enumeration had been cut short.
func TestCanceledRunNeverSaturated(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	g := b.MustFinish(b.Relu(x))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rule := MustRule("gated", "(relu ?x)", "(relu (relu ?x))")
	rule.Cond = func(func(string) *tensor.Meta) bool {
		cancel() // the request dies mid-iteration
		return false
	}

	r := NewRunner([]*Rule{rule})
	ex, err := r.RunContext(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop == StopSaturated {
		t.Fatalf("canceled run reported Saturated: %+v", ex.Stats)
	}
	if ex.Stats.Stop != StopCanceled {
		t.Fatalf("cancellation not reported: %+v", ex.Stats)
	}
}

// TestTimedOutRunNeverSaturated is the deadline twin: the exploration
// budget expires during a no-change iteration; the run must report
// a timeout, not saturation.
func TestTimedOutRunNeverSaturated(t *testing.T) {
	b := tensor.NewBuilder()
	x := b.Input("x", 4, 4)
	g := b.MustFinish(b.Relu(x))

	rule := MustRule("gated", "(relu ?x)", "(relu (relu ?x))")
	rule.Cond = func(func(string) *tensor.Meta) bool {
		time.Sleep(30 * time.Millisecond) // outlive the budget mid-iteration
		return false
	}

	r := NewRunner([]*Rule{rule})
	r.Limits.Timeout = 10 * time.Millisecond
	ex, err := r.RunContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Stop == StopSaturated {
		t.Fatalf("timed-out run reported Saturated: %+v", ex.Stats)
	}
	if ex.Stats.Stop != StopTimeout {
		t.Fatalf("timeout not reported: %+v", ex.Stats)
	}
}
