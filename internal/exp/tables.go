package exp

import (
	"fmt"
	"time"

	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/ilp"
	"tensat/internal/rewrite"
)

// FormatTable1 renders Table 1 from the sweep: optimization time and
// achieved speedup, TASO vs TENSAT.
func FormatTable1(runs []*ModelRun) string {
	t := newTable("Model", "TASO time", "TENSAT time", "TASO speedup", "TENSAT speedup")
	for _, r := range runs {
		t.row(r.Model, fmtDur(r.TasoTotal), fmtDur(r.TensatTime()),
			fmt.Sprintf("%.1f%%", r.TasoSpeedup), fmt.Sprintf("%.1f%%", r.TensatSpeedup))
	}
	return "Table 1: optimization time and runtime speedup, TASO vs TENSAT\n" + t.String()
}

// FormatTable3 renders Table 3 from the sweep: TENSAT's optimization
// time split into exploration and extraction.
func FormatTable3(runs []*ModelRun) string {
	t := newTable("Model", "Exploration", "Extraction")
	for _, r := range runs {
		t.row(r.Model, fmtDur(r.TensatExplore), fmtDur(r.TensatExtract))
	}
	return "Table 3: optimization time breakdown for TENSAT\n" + t.String()
}

// Table4Row compares greedy and ILP extraction by optimized-graph
// runtime (paper Table 4: BERT, NasRNN, NasNet-A, k_multi = 1).
type Table4Row struct {
	Model                 string
	Original, Greedy, ILP float64 // simulated runtime (us)
}

// Table4Models lists the models the paper uses for Table 4.
var Table4Models = []string{"BERT", "NasRNN", "NasNet-A"}

// Table4 regenerates Table 4.
func (c Config) Table4() ([]Table4Row, error) {
	rt := runtimeModel()
	var rows []Table4Row
	for _, name := range Table4Models {
		g, err := c.graph(name)
		if err != nil {
			return nil, err
		}
		ex, err := c.explore(g, 1, rewrite.FilterEfficient, time.Hour)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		greedy, err := extract.Greedy(ex, cost.NewT4())
		if err != nil {
			return nil, fmt.Errorf("%s greedy: %w", name, err)
		}
		ilpRes, err := c.ilpExtract(ex, false, ilp.TopoReal)
		if err != nil {
			return nil, fmt.Errorf("%s ilp: %w", name, err)
		}
		// One shared measurement salt: identical graphs must measure
		// identically for the greedy-vs-ILP comparison to be meaningful.
		orig, _ := c.measureRuntime(rt, g, 0)
		gm, _ := c.measureRuntime(rt, greedy.Graph, 0)
		im, _ := c.measureRuntime(rt, ilpRes.Graph, 0)
		rows = append(rows, Table4Row{Model: name, Original: orig, Greedy: gm, ILP: im})
	}
	return rows, nil
}

// FormatTable4 renders Table 4 rows.
func FormatTable4(rows []Table4Row) string {
	t := newTable("Model", "Original", "Greedy", "ILP")
	for _, r := range rows {
		t.row(r.Model,
			fmt.Sprintf("%.1fus", r.Original),
			fmt.Sprintf("%.1fus", r.Greedy),
			fmt.Sprintf("%.1fus", r.ILP))
	}
	return "Table 4: greedy vs ILP extraction, simulated graph runtime\n" + t.String()
}

// Table5Row compares ILP solve time with and without cycle
// constraints (paper Table 5: real/int topological variables). A cell
// that spent its budget is the paper's ">3600" entry.
type Table5Row struct {
	Model                      string
	KMulti                     int
	WithReal, WithInt, Without Timed
}

// Table5 regenerates Table 5 at the paper's k_multi = 1 and 2.
// The cycle-constrained solves are expected to hit their timeout on
// larger e-graphs — that is the experiment's point (the paper reports
// ">3600" cells) — so this experiment clamps the e-graph size and the
// per-solve timeout to keep the wall-clock bounded.
func (c Config) Table5() ([]Table5Row, error) {
	c.NodeLimit = min(c.NodeLimit, 3000)
	c.ILPTimeout = min(c.ILPTimeout, 20*time.Second)
	solve := func(ex *rewrite.Explored, cycles bool, topo ilp.TopoMode) Timed {
		res, err := c.ilpExtract(ex, cycles, topo)
		if err != nil {
			return failed(err, c.ILPTimeout)
		}
		return Timed{Time: res.ILP.Time, TimedOut: res.ILP.TimedOut}
	}
	var rows []Table5Row
	for _, name := range Table4Models {
		g, err := c.graph(name)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{1, 2} {
			// With cycle constraints: explore without filtering.
			exNone, err := c.explore(g, k, rewrite.FilterNone, time.Hour)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			// Without cycle constraints: efficient filtering first.
			exFilt, err := c.explore(g, k, rewrite.FilterEfficient, time.Hour)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rows = append(rows, Table5Row{
				Model: name, KMulti: k,
				WithReal: solve(exNone, true, ilp.TopoReal),
				WithInt:  solve(exNone, true, ilp.TopoInt),
				Without:  solve(exFilt, false, ilp.TopoReal),
			})
		}
	}
	return rows, nil
}

// FormatTable5 renders Table 5 rows.
func FormatTable5(rows []Table5Row) string {
	header := []string{"Model", "k_multi", "With cycle (real)", "With cycle (int)", "Without cycle"}
	t := newTable(header...)
	for _, r := range rows {
		where := fmt.Sprintf("%s k_multi %d, ", r.Model, r.KMulti)
		t.row(r.Model, fmt.Sprintf("%d", r.KMulti),
			t.timed(r.WithReal, where+header[2]),
			t.timed(r.WithInt, where+header[3]),
			t.timed(r.Without, where+header[4]))
	}
	return "Table 5: ILP solve time with vs without cycle constraints\n" + t.String()
}

// Table6Row compares vanilla and efficient cycle filtering by
// exploration time (paper Table 6).
type Table6Row struct {
	Model              string
	KMulti             int
	Vanilla, Efficient time.Duration
	// Timeout flags correspond to the paper's ">3600" cells.
	VanillaTimedOut, EfficientTimedOut bool
}

// Table6 regenerates Table 6 for k_multi in kmultis (paper: 1 and 2).
// Vanilla filtering is expected to blow up at k_multi = 2 — the
// experiment's point — so exploration is clamped (e-graph size 3000,
// 60 s timeout) and overruns are flagged, like the paper's ">3600".
func (c Config) Table6(kmultis ...int) ([]Table6Row, error) {
	c.NodeLimit = min(c.NodeLimit, 3000)
	var rows []Table6Row
	for _, name := range Table4Models {
		g, err := c.graph(name)
		if err != nil {
			return nil, err
		}
		for _, k := range kmultis {
			vanilla, err := c.explore(g, k, rewrite.FilterVanilla, time.Minute)
			if err != nil {
				return nil, fmt.Errorf("%s vanilla: %w", name, err)
			}
			efficient, err := c.explore(g, k, rewrite.FilterEfficient, time.Minute)
			if err != nil {
				return nil, fmt.Errorf("%s efficient: %w", name, err)
			}
			rows = append(rows, Table6Row{
				Model: name, KMulti: k,
				Vanilla: vanilla.Stats.ExploreTime, VanillaTimedOut: vanilla.Stats.HitTimeout,
				Efficient: efficient.Stats.ExploreTime, EfficientTimedOut: efficient.Stats.HitTimeout,
			})
		}
	}
	return rows, nil
}

// FormatTable6 renders Table 6 rows.
func FormatTable6(rows []Table6Row) string {
	t := newTable("Model", "k_multi", "Vanilla", "Efficient")
	for _, r := range rows {
		t.row(r.Model, fmt.Sprintf("%d", r.KMulti),
			t.timed(Timed{Time: r.Vanilla, TimedOut: r.VanillaTimedOut}, ""),
			t.timed(Timed{Time: r.Efficient, TimedOut: r.EfficientTimedOut}, ""))
	}
	return "Table 6: vanilla vs efficient cycle filtering, exploration time\n" + t.String()
}
