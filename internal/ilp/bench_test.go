package ilp_test

import (
	"context"
	"testing"
	"time"

	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/ilp"
	"tensat/internal/ilp/presolve"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/tensor"
)

// benchmarkBranch measures the search core alone on a zoo model's
// presolved extraction program, explored at the benchmark's limits
// (bench/zoo.go): each iteration is one worker's whole search, to
// proof or to the stall limit. It reports expansions per second and,
// with ReportAllocs, that a warmed worker allocates nothing.
func benchmarkBranch(b *testing.B, build func(models.Scale) *tensor.Graph, maxNodes int) {
	r := rewrite.NewRunner(rules.Default())
	r.Limits = rewrite.Limits{MaxNodes: maxNodes, MaxIters: 15, KMulti: 1}
	ex, err := r.Run(build(models.ScaleTest))
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := extract.BuildProblem(ex, cost.NewT4(), extract.ILPOptions{Timeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	reduced, _, err := presolve.Run(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	run, err := ilp.NewBranchRun(reduced)
	if err != nil {
		b.Fatal(err)
	}
	run() // grow the worker's buffers
	b.ReportAllocs()
	b.ResetTimer()
	var explored int64
	for i := 0; i < b.N; i++ {
		explored += run()
	}
	b.ReportMetric(float64(explored)/b.Elapsed().Seconds(), "expansions/s")
}

func BenchmarkBranchNasRNN(b *testing.B) { benchmarkBranch(b, models.NasRNN, 2000) }
func BenchmarkBranchBERT(b *testing.B)   { benchmarkBranch(b, models.BERT, 5000) }
