package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tensat"
	"tensat/internal/models"
)

// zooSLO is the latency limit of a library call: how long a compile
// step may keep its caller waiting.
const zooSLO = 10 * time.Second

// minPasses is the least number of timed passes, and so of samples per
// row, whatever the run length.
const minPasses = 5

// zooILPRows is the paper's Table 1/3 experiment at test scale: every
// zoo model through ILP extraction. The three models whose e-graphs
// hit the node limit get a lower one so that a pass fits the run
// length; the other five saturate far below any of these limits.
func zooILPRows() []job {
	limit := map[string]int{"NasRNN": 2000, "BERT": 5000, "NasNet-A": 10000}
	var rows []job
	for _, m := range append(models.Benchmarks(), models.Extras()...) {
		opts := tensat.Options{NodeLimit: 20000, IterLimit: 15, KMulti: 1}
		if n, ok := limit[m.Name]; ok {
			opts.NodeLimit = n
		}
		rows = append(rows, job{
			name:  fmt.Sprintf("%s/ilp@%d", m.Name, opts.NodeLimit),
			graph: m.Build(models.ScaleTest),
			opts:  opts,
		})
	}
	return rows
}

// zooExploreRows bypasses the ILP: greedy extraction is under 5 % of
// the wall time, so the e-graph, the matcher and the rule applier do
// the work. The rows use the e-graph differently — see README.md.
func zooExploreRows() []job {
	var rows []job
	for _, r := range []struct{ model, ruleset string }{
		{"NasRNN", "taso-default"}, {"BERT", "taso-default"},
		{"NasNet-A", "taso-default"}, {"Inception-v3", "taso-default"},
		{"NasRNN", "taso-single"}, {"BERT", "taso-single"},
	} {
		m, err := models.ByName(r.model)
		if err != nil {
			panic(err) // the zoo is compiled in
		}
		rows = append(rows, job{
			name:  r.model + "/" + r.ruleset,
			graph: m.Build(models.ScaleTest),
			opts: tensat.Options{
				RuleSet: r.ruleset, NodeLimit: 20000, IterLimit: 15, KMulti: 1,
				Extractor: tensat.ExtractGreedy,
			},
		})
	}
	return rows
}

// zooSetup is everything a library user pays before the first call
// returns at full speed: the model graphs, a registry with its rule
// sets compiled, an optimizer, and one small optimization per rule set
// so that lazily built state exists.
type zooState struct {
	rows []job
	opt  *tensat.Optimizer
	sets ruleSets
}

func zooSetup(ctx context.Context, build func() []job) (*zooState, error) {
	st := &zooState{rows: build()}
	reg := tensat.NewRegistry()
	st.opt = tensat.NewOptimizer(tensat.WithRegistry(reg))
	var err error
	if st.sets, err = compileRuleSets(reg, "taso-default", "taso-single"); err != nil {
		return nil, err
	}
	small, err := models.ByName("SqueezeNet")
	if err != nil {
		return nil, err
	}
	for name := range st.sets {
		o := tensat.Options{RuleSet: name, NodeLimit: 2000, IterLimit: 15, KMulti: 1, Extractor: tensat.ExtractGreedy}
		if _, err := submit(ctx, st.opt, small.Build(models.ScaleTest), o); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

func submit(ctx context.Context, o *tensat.Optimizer, g *tensat.Graph, opts tensat.Options) (*tensat.Result, error) {
	j, err := o.Submit(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return j.Result()
}

// repeatSetup runs set-up n times and keeps the last state; the
// reported set-up time is the median. between, if not nil, runs before
// each set-up, outside its timing.
func repeatSetup[T any](n int, setup func() (T, error), discard func(T), between func()) (T, []float64, error) {
	var state T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(state)
		}
		if between != nil {
			between()
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return state, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		state = s
	}
	return state, secs, nil
}

func runZoo(build func() []job) func(context.Context, runConfig, *runReport) (map[string]float64, error) {
	return func(ctx context.Context, cfg runConfig, rep *runReport) (map[string]float64, error) {
		// A gauge unit before each set-up: the 15 take half a second
		// together, one reading of the host.
		var units []float64
		st, setupS, err := repeatSetup(15, func() (*zooState, error) { return zooSetup(ctx, build) }, nil,
			func() { units = append(units, gaugeUnit()) })
		if err != nil {
			return nil, err
		}
		rep.SetupS = setupS
		rep.Host = &hostReport{NominalMS: gaugeNominalMS, SetupFactor: hostFactor(units)}
		if cfg.trace {
			return zooTraced(ctx, cfg, rep, st)
		}
		return zooTimed(ctx, cfg, rep, st)
	}
}

// zooTimes makes the zoo's time metrics from a row's wall times (ms,
// one per pass) and the passes' wall and CPU seconds. A row does the
// same work on every pass, so its time is the median across passes.
func zooTimes(rowMS [][]float64, passWall, passCPU []float64) map[string]float64 {
	var rowS []float64
	for _, ms := range rowMS {
		rowS = append(rowS, median(ms)/1e3)
	}
	n := float64(len(rowMS))
	return map[string]float64{
		"wall_s_total":   sum(rowS),
		"wall_s_geomean": geomean(rowS),
		"lat_p50_ms":     median(rowS) * 1e3,
		"capacity_rps":   n / median(passWall),
		"cpu_ms_per_op":  median(passCPU) * 1e3 / n,
	}
}

// zooTimed is the untraced run: whole passes over the rows, one caller,
// each row in an order the seed shuffles, until the run length is used
// up. A gauge unit runs before every call, outside its timing, and a
// pass's times are brought to the host's nominal speed by the mean of
// the pass's units (gauge.go).
func zooTimed(ctx context.Context, cfg runConfig, rep *runReport, st *zooState) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	n := len(st.rows)
	wall, rawWall := make([][]float64, n), make([][]float64, n) // per row, ms: at nominal speed, and as measured
	last := make([]*tensat.Result, n)
	var passWall, passCPU, rawPassWall, rawPassCPU, passElapsed []float64
	slow := 0
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= minPasses {
			// Start another pass only if it is likely to end in time.
			if time.Since(start).Seconds()+median(passElapsed) > cfg.seconds {
				break
			}
		}
		t0 := time.Now()
		var units []float64
		ms := make([]float64, n)
		var wallS, cpuS float64
		for _, i := range rng.Perm(n) {
			row := st.rows[i]
			units = append(units, gaugeUnit())
			c := selfCPUSeconds()
			s := time.Now()
			res, err := submit(ctx, st.opt, row.graph, row.opts)
			d := time.Since(s)
			cpuS += selfCPUSeconds() - c
			wallS += d.Seconds()
			rep.Attempted++
			if err != nil {
				rep.Failed++
				rep.CheckFailures = append(rep.CheckFailures, fmt.Sprintf("%s: %v", row.name, err))
				continue
			}
			if d > zooSLO {
				slow++
			}
			if prev := last[i]; prev != nil && prev.OptCost != res.OptCost {
				rep.CheckFailures = append(rep.CheckFailures,
					fmt.Sprintf("%s: cost %v on one pass, %v on another", row.name, prev.OptCost, res.OptCost))
			}
			last[i] = res
			ms[i] = float64(d.Nanoseconds()) / 1e6
		}
		passElapsed = append(passElapsed, time.Since(t0).Seconds())
		if rep.Failed > 0 {
			return nil, fmt.Errorf("%d of %d optimizations failed", rep.Failed, rep.Attempted)
		}
		f := hostFactor(units)
		rep.Host.PassFactor = append(rep.Host.PassFactor, f)
		for i := range ms {
			rawWall[i] = append(rawWall[i], ms[i])
			wall[i] = append(wall[i], ms[i]*f)
		}
		rawPassWall, rawPassCPU = append(rawPassWall, wallS), append(rawPassCPU, cpuS)
		passWall, passCPU = append(passWall, wallS*f), append(passCPU, cpuS*f)
	}
	// Read before the output checks run: they execute every model on
	// real tensors, which is not the optimizer's memory.
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	chk := newChecker()
	var speedups []float64
	for i, row := range st.rows {
		res := last[i]
		chk.result(row.name, fmt.Sprint(i), row.graph, res.Graph, res.OrigCost, res.OptCost,
			row.opts.Extractor == tensat.ExtractILP, true)
		rr := newRowReport(row.name, rawWall[i])
		rr.OrigCost, rr.OptCost = res.OrigCost, res.OptCost
		rep.Rows = append(rep.Rows, rr)
		speedups = append(speedups, res.OrigCost/res.OptCost)
	}
	rep.OutputsRun = chk.checked
	rep.CheckFailures = append(rep.CheckFailures, chk.failures...)
	rep.Samples = map[string]int{"passes": len(passWall), "ops": rep.Attempted, "setup": len(rep.SetupS)}

	// The zoo's costs do not depend on the seed or the machine, so
	// extraction quality is held to the committed baseline exactly: it
	// may rise, not fall.
	base, err := baselineValue(cfg.root, rep.Workload, "cost_speedup_geomean")
	if err != nil {
		return nil, err
	}
	if got := geomean(speedups); got < base*(1-1e-9) {
		rep.CheckFailures = append(rep.CheckFailures,
			fmt.Sprintf("cost_speedup_geomean is %v, below the committed baseline's %v", got, base))
	}
	rep.Host.AsMeasured = zooTimes(rawWall, rawPassWall, rawPassCPU)
	rep.Host.AsMeasured["setup_s"] = median(rep.SetupS)
	m := zooTimes(wall, passWall, passCPU)
	m["setup_s"] = median(rep.SetupS) * rep.Host.SetupFactor
	m["peak_rss_mb"] = rss
	m["cost_speedup_geomean"] = geomean(speedups)
	m["slo_ok_ratio"] = float64(rep.Attempted-slow) / float64(rep.Attempted)
	m["ok_ratio"] = float64(rep.Attempted-rep.Failed) / float64(rep.Attempted)
	return m, nil
}

// zooTraced repeats one pass with the pipeline cut at its public
// seams, replays the serving layers over the same graphs and results,
// and — for as long as the run length allows — pairs traced and
// untraced library calls to measure what Options.Trace costs.
func zooTraced(ctx context.Context, cfg runConfig, rep *runReport, st *zooState) (map[string]float64, error) {
	rec := newRecorder()
	model := tensat.DefaultCostModel()
	m := cfg.zeroPerLayer()
	start := time.Now()
	var total layerCost
	var recs []record
	chk := newChecker()
	var units []float64
	for i, row := range st.rows {
		units = append(units, gaugeUnit())
		s := time.Now()
		rowSpan := rec.open(row.name, -1, i+1)
		cost, res, err := cutPipeline(ctx, rec, rowSpan, i+1, row, st.sets, model)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return nil, err
		}
		rec.close(rowSpan)
		total.add(cost)
		orig := tensat.GraphCost(model, row.graph)
		text, err := row.graph.MarshalText()
		if err != nil {
			return nil, err
		}
		recs = append(recs, record{text: string(text), graph: row.graph,
			res: &tensat.Result{Graph: res.Graph, OrigCost: orig, OptCost: res.Cost}})
		rr := newRowReport(row.name, []float64{float64(time.Since(s).Nanoseconds()) / 1e6})
		rr.OrigCost, rr.OptCost = orig, res.Cost
		c := cost
		rr.Layers = &c
		rep.Rows = append(rep.Rows, rr)
	}
	total.metrics(m)
	// The per-layer times are as the clock measured them; this is what a
	// gauge unit took alongside, for reading them against another run's.
	m["host.gauge_ms"] = sum(units) / float64(len(units))
	if err := replayLayers(rec, recs, cfg.scratch, nil, m); err != nil {
		return nil, err
	}
	for i, row := range st.rows {
		res := recs[i].res
		chk.result(row.name, fmt.Sprint(i), row.graph, res.Graph, res.OrigCost, res.OptCost,
			row.opts.Extractor == tensat.ExtractILP, true)
	}

	// Tracing overhead: the same call with Options.Trace on and off,
	// back to back, the order alternating; the median of the paired
	// ratios. Only the explore-bound workload runs it — there the spans
	// are densest (one per phase per iteration).
	pairs := 0
	if rep.Workload == "zoo_explore" {
		var ratios []float64
		for pairs < 2 || time.Since(start).Seconds()+total.ExploreS*2 < cfg.seconds {
			var on, off float64
			for i, row := range st.rows {
				for k := 0; k < 2; k++ {
					traced := (k == 0) == ((pairs+i)%2 == 0)
					opts := row.opts
					opts.Trace = traced
					s := time.Now()
					if _, err := submit(ctx, st.opt, row.graph, opts); err != nil {
						return nil, err
					}
					if traced {
						on += time.Since(s).Seconds()
					} else {
						off += time.Since(s).Seconds()
					}
				}
			}
			ratios = append(ratios, on/off)
			pairs++
		}
		m["obs.trace_overhead_pct"] = (median(ratios) - 1) * 100
	}

	rep.OutputsRun = chk.checked
	rep.CheckFailures = append(rep.CheckFailures, chk.failures...)
	rep.Samples = map[string]int{"rows": len(st.rows), "overhead_pairs": pairs, "setup": len(rep.SetupS)}
	rep.SelfSeconds = rec.selfTimes()
	rep.TraceFile = cfg.traceFile(rep.Workload)
	if err := rec.writeChrome(rep.TraceFile); err != nil {
		return nil, err
	}
	return m, nil
}
