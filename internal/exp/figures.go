package exp

import (
	"fmt"
	"time"

	"tensat/internal/cost"
	"tensat/internal/models"
	"tensat/internal/taso"
)

// Figure4 is the sweep's speedups plus the paper's extra Inception-v3
// bar at k_multi = 2, which has no TASO counterpart.
func (r *Runs) Figure4() ([]*ModelRun, error) {
	runs, err := r.Sweep()
	if err != nil {
		return nil, err
	}
	k2, err := r.inceptionK2()
	return append(runs, k2), err
}

// inceptionK2 is Figure 4's Inception-v3 k_multi = 2 bar.
func (r *Runs) inceptionK2() (*ModelRun, error) {
	m, err := r.measure(r.run("Inception-v3", 2), false)
	if err != nil {
		return nil, err
	}
	m.Model = "Incept. k=2"
	return m, nil
}

// errPercent propagates a runtime stderr into speedup-percent units.
func errPercent(orig, opt, stderr float64) float64 {
	if opt <= 0 {
		return 0
	}
	return orig / (opt * opt) * stderr * 100
}

// FormatFigure4 renders Figure 4 from the sweep: mean speedup with
// standard error, per optimizer. Like the paper, Inception-v3 appears
// twice (k_multi = 1 and 2).
func FormatFigure4(runs []*ModelRun) string {
	t := newTable("Model", "TASO speedup", "TENSAT speedup")
	for _, r := range runs {
		taso := "-"
		if r.Model != "Incept. k=2" {
			taso = fmt.Sprintf("%.1f%% ± %.2f", r.TasoSpeedup, errPercent(r.OrigRuntime, r.TasoRuntime, r.TasoStderr))
		}
		t.row(r.Model, taso, fmt.Sprintf("%.1f%% ± %.2f", r.TensatSpeedup, errPercent(r.OrigRuntime, r.TensatRuntime, r.TensatStderr)))
	}
	return "Figure 4: speedup percentage of optimized graphs (mean ± stderr)\n" + t.String()
}

// FormatFigure5 renders Figure 5 from the sweep: optimizer times (log
// scale in the paper) plus the TASO-total / TENSAT ratio annotation.
func FormatFigure5(runs []*ModelRun) string {
	t := newTable("Model", "TASO total", "TASO best", "TENSAT", "speedup vs TASO total")
	for _, r := range runs {
		ratio := 0.0
		if r.TensatTime() > 0 {
			ratio = float64(r.TasoTotal) / float64(r.TensatTime())
		}
		t.row(r.Model, fmtDur(r.TasoTotal), fmtDur(r.TasoBest), fmtDur(r.TensatTime()),
			fmt.Sprintf("%.1fx", ratio))
	}
	return "Figure 5: optimization time (TASO total / TASO best / TENSAT)\n" + t.String()
}

// CurvePoint is one point of a speedup-over-optimizer-time curve.
type CurvePoint struct {
	At      time.Duration
	Speedup float64 // percent
}

// Figure6 regenerates the Figure 6 tradeoff curves on Inception-v3:
// best-so-far speedup against optimizer time for both systems. The
// TASO curve is its search trace; the TENSAT curve grows the search
// budget (iterations, then k_multi). Its last two points are the
// sweep's Inception-v3 run and Figure 4's k_multi = 2 bar.
func (r *Runs) Figure6() (tensatCurve, tasoCurve []CurvePoint, err error) {
	const name = "Inception-v3"
	g, err := r.graph(name)
	if err != nil {
		return nil, nil, err
	}
	rt := runtimeModel()
	orig, _ := r.measureRuntime(rt, g, 0)

	// TASO: replay the improvement trace.
	tres, err := r.searched(g, tasoRun{name, taso.Options{N: r.TasoN, Alpha: r.TasoAlpha, Timeout: time.Minute}})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range tres.Trace {
		// Re-measure the trace's cost in runtime units via ratio; the
		// trace stores optimizer-model cost, close enough for a curve,
		// but the end point is re-measured exactly below.
		tasoCurve = append(tasoCurve, CurvePoint{At: p.At, Speedup: cost.SpeedupPercent(tres.Trace[0].Cost, p.Cost)})
	}
	final, _ := r.measureRuntime(rt, tres.Graph, 2)
	tasoCurve = append(tasoCurve, CurvePoint{At: tres.TotalTime, Speedup: cost.SpeedupPercent(orig, final)})

	// TENSAT: increasing budgets.
	budgets := []tensatRun{r.run(name, 0), r.run(name, 1), r.run(name, 1), r.run(name, 2)}
	budgets[0].iters, budgets[1].iters = 1, 2
	elapsed := time.Duration(0)
	for _, k := range budgets {
		res, err := r.optimized(g, k)
		if err != nil {
			return nil, nil, err
		}
		mean, _ := r.measureRuntime(rt, res.Graph, 3)
		elapsed += res.ExploreTime + res.ExtractTime
		tensatCurve = append(tensatCurve, CurvePoint{At: elapsed, Speedup: cost.SpeedupPercent(orig, mean)})
	}
	return tensatCurve, tasoCurve, nil
}

// FormatFigure6 renders both tradeoff curves.
func FormatFigure6(tensatCurve, tasoCurve []CurvePoint) string {
	t := newTable("System", "Optimizer time", "Speedup")
	for _, p := range tasoCurve {
		t.row("TASO", fmtDur(p.At), fmt.Sprintf("%.1f%%", p.Speedup))
	}
	for _, p := range tensatCurve {
		t.row("TENSAT", fmtDur(p.At), fmt.Sprintf("%.1f%%", p.Speedup))
	}
	return "Figure 6: speedup over optimization time, Inception-v3\n" + t.String()
}

// Figure7Row is one (model, k_multi) point of Figure 7: speedup,
// optimizer time and final e-graph size. A run that failed has only
// Time, as a timeout or an error.
type Figure7Row struct {
	Model   string
	KMulti  int
	Speedup float64
	Time    Timed
	ENodes  int
}

// Figure7 regenerates Figure 7 over k_multi = 0..3 for all models.
// Large k_multi is where e-graphs grow doubly exponentially (§6.4), so
// runs are clamped (10k nodes, 30 s ILP, 60 s exploration) — the paper
// similarly reports ILP timeouts at k_multi = 3.
func (r *Runs) Figure7() ([]Figure7Row, error) {
	rt := runtimeModel()
	var rows []Figure7Row
	for _, m := range models.Benchmarks() {
		g := m.Build(r.Scale)
		orig, _ := r.measureRuntime(rt, g, 0)
		for k := 0; k <= 3; k++ {
			run := r.run(m.Name, k)
			run.nodes, run.ilp, run.explore = min(run.nodes, 10000), min(run.ilp, 30*time.Second), time.Minute
			row := Figure7Row{Model: m.Name, KMulti: k}
			if res, err := r.optimized(g, run); err != nil {
				row.Time = failed(err, run.ilp)
			} else {
				mean, _ := r.measureRuntime(rt, res.Graph, uint64(k))
				row.Speedup = cost.SpeedupPercent(orig, mean)
				row.Time = Timed{Time: res.ExploreTime + res.ExtractTime}
				row.ENodes = res.ENodes
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatFigure7 renders the Figure 7 series.
func FormatFigure7(rows []Figure7Row) string {
	t := newTable("Model", "k_multi", "Speedup", "Optimizer time", "#e-nodes")
	for _, r := range rows {
		k := fmt.Sprintf("%d", r.KMulti)
		switch {
		case r.Time.Err != nil:
			t.row(r.Model, k, "error", t.timed(r.Time, r.Model+" k_multi "+k), "-")
		case r.Time.TimedOut:
			t.row(r.Model, k, "timeout", "timeout", "-")
		default:
			t.row(r.Model, k, fmt.Sprintf("%.1f%%", r.Speedup), fmtDur(r.Time.Time), fmt.Sprintf("%d", r.ENodes))
		}
	}
	return "Figure 7: effect of k_multi on speedup, time, and e-graph size\n" + t.String()
}
