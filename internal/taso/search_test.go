package taso_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/fingerprint"
	"tensat/internal/models"
	"tensat/internal/rules"
	"tensat/internal/taso"
)

// TestSearchIgnoresRuleOrder: the baseline's answer on every zoo model
// is a function of the rule set, not of the order it lists its rules
// in. Two shuffles of rules.Default() must return the graph (by
// fingerprint), the cost, the counts and the trace costs the listed
// order does. The budget is 10 pops, and 3 on NasRNN, whose pops each
// try over a thousand candidates.
func TestSearchIgnoresRuleOrder(t *testing.T) {
	type outcome struct {
		fp                     fingerprint.Fingerprint
		cost                   float64
		iterations, candidates int
		trace                  []float64
	}
	search := func(m models.Model, shuffle int64) outcome {
		rs := rules.Default()
		if shuffle != 0 {
			rand.New(rand.NewSource(shuffle)).Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		}
		opts := taso.Options{N: 10, Alpha: 1.05, MaxMatchesPerRule: 2000, Timeout: time.Hour}
		if m.Name == "NasRNN" {
			opts.N = 3
		}
		res, err := taso.Search(m.Build(models.ScaleTest), rs, cost.NewT4(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fingerprint.Graph(res.Graph)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{fp: fp, cost: res.Cost, iterations: res.Iterations, candidates: res.Candidates}
		for _, p := range res.Trace {
			o.trace = append(o.trace, p.Cost)
		}
		return o
	}
	for _, m := range append(models.Benchmarks(), models.Extras()...) {
		want := search(m, 0)
		for _, shuffle := range []int64{1, 2} {
			got := search(m, shuffle)
			if got.fp != want.fp || got.cost != want.cost || got.iterations != want.iterations ||
				got.candidates != want.candidates || !slices.Equal(got.trace, want.trace) {
				t.Errorf("%s, shuffle %d: got %v %v %d %d %v, listed order %v %v %d %d %v", m.Name, shuffle,
					got.fp, got.cost, got.iterations, got.candidates, got.trace,
					want.fp, want.cost, want.iterations, want.candidates, want.trace)
			}
		}
	}
}
