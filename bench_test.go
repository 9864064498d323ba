// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark runs one experiment end to end and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Absolute numbers come from the
// simulated device (see internal/cost). Set TENSAT_BENCH_FULL=1 to use
// the paper-scale configuration instead of the CPU-friendly default.
// Per-layer and end-to-end performance measurement lives in bench/.
package tensat_test

import (
	"os"
	"testing"

	"tensat/internal/exp"
)

// benchConfig sizes experiments so the full suite finishes in minutes.
func benchConfig() exp.Config {
	if os.Getenv("TENSAT_BENCH_FULL") != "" {
		return exp.Full()
	}
	c := exp.Default()
	c.NodeLimit = 10000
	c.IterLimit = 10
	c.TasoN = 15
	return c
}

// BenchmarkTable1 regenerates Table 1: optimization time and runtime
// speedup, TASO vs TENSAT, over all seven models.
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatTable1(rows))
			var tensatSum, tasoSum float64
			for _, r := range rows {
				tensatSum += r.TensatSpeedup
				tasoSum += r.TasoSpeedup
			}
			b.ReportMetric(tensatSum/float64(len(rows)), "tensat-speedup-%")
			b.ReportMetric(tasoSum/float64(len(rows)), "taso-speedup-%")
		}
	}
}

// BenchmarkTable3 regenerates Table 3: TENSAT's optimization-time
// breakdown (exploration vs extraction).
func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatTable3(rows))
		}
	}
}

// BenchmarkTable4 regenerates Table 4: greedy vs ILP extraction.
func BenchmarkTable4(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatTable4(rows))
			for _, r := range rows {
				if r.Model == "NasRNN" {
					b.ReportMetric(r.Greedy/r.ILP, "nasrnn-greedy/ilp")
				}
			}
		}
	}
}

// BenchmarkTable5 regenerates Table 5: ILP time with vs without cycle
// constraints (real and integer topological variables).
func BenchmarkTable5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table5(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatTable5(rows))
		}
	}
}

// BenchmarkTable6 regenerates Table 6: vanilla vs efficient cycle
// filtering exploration time.
func BenchmarkTable6(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table6(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatTable6(rows))
			var van, eff float64
			for _, r := range rows {
				van += r.Vanilla.Seconds()
				eff += r.Efficient.Seconds()
			}
			if eff > 0 {
				b.ReportMetric(van/eff, "vanilla/efficient")
			}
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: per-model speedups with error
// bars, including the Inception-v3 k_multi=2 point.
func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatFigure4(rows))
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: optimizer times (TASO total /
// TASO best / TENSAT) and the speedup ratios.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatFigure5(rows))
			var maxRatio float64
			for _, r := range rows {
				if r.Ratio > maxRatio {
					maxRatio = r.Ratio
				}
			}
			b.ReportMetric(maxRatio, "max-taso/tensat-time")
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: speedup over optimizer time
// on Inception-v3.
func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tn, ts, err := cfg.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatFigure6(tn, ts))
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: the effect of k_multi on
// speedup, optimizer time, and e-graph size.
func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Figure7(3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exp.FormatFigure7(rows))
			var maxNodes int
			for _, r := range rows {
				if r.ENodes > maxNodes {
					maxNodes = r.ENodes
				}
			}
			b.ReportMetric(float64(maxNodes), "max-enodes")
		}
	}
}
