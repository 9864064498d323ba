// Package exp is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§6) over the model zoo, the
// TENSAT pipeline (root package) and the TASO baseline. Absolute
// numbers differ from the paper (the substrate is a simulated device,
// not a T4), but each experiment preserves the published comparison's
// shape.
package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"tensat"
	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/ilp"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
	"tensat/internal/taso"
	"tensat/internal/tensor"
)

// Config sizes the experiments. Defaults run the whole suite on CPU in
// well under a minute; Full() approximates the paper's settings.
type Config struct {
	Scale      models.Scale
	NodeLimit  int           // e-graph size limit (paper: 50000)
	IterLimit  int           // exploration iterations (paper: 15)
	TasoN      int           // TASO search iterations (paper: 100)
	TasoAlpha  float64       // TASO backtracking threshold (paper: 1.0/1.05)
	ILPTimeout time.Duration // ILP solver timeout (paper: 1 hour)
	Runs       int           // measurement repetitions for error bars
}

// Default returns the fast CPU-friendly configuration.
func Default() Config {
	return Config{
		Scale:      models.ScaleTest,
		NodeLimit:  20000,
		IterLimit:  15,
		TasoN:      30,
		TasoAlpha:  1.05,
		ILPTimeout: 2 * time.Minute,
		Runs:       5,
	}
}

// Full approximates the paper's settings (much slower).
func Full() Config {
	c := Default()
	c.Scale = models.ScaleFull
	c.NodeLimit = 50000
	c.TasoN = 100
	c.ILPTimeout = time.Hour
	return c
}

// device is the optimizer-facing cost model; runtime is the
// measurement model used to report "graph runtime" speedups.
func (c Config) deviceAndRuntime() (cost.Model, cost.Model) {
	d := cost.NewT4()
	return d, cost.NewRuntime(d)
}

// measureRuntime returns the mean and standard error of the simulated
// graph runtime over cfg.Runs measurements. The per-run jitter is a
// deterministic ±1% hash-derived perturbation standing in for real
// measurement noise (the paper plots mean ± stderr over five runs).
func (c Config) measureRuntime(rt cost.Model, g *tensor.Graph, salt uint64) (mean, stderr float64) {
	base := cost.GraphCost(rt, g)
	runs := c.Runs
	if runs < 1 {
		runs = 1
	}
	var sum, sumsq float64
	for i := 0; i < runs; i++ {
		x := base * (1 + jitter(g.Hash()^salt, uint64(i))*0.01)
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(runs)
	if runs > 1 {
		variance := (sumsq - sum*sum/float64(runs)) / float64(runs-1)
		if variance < 0 {
			variance = 0
		}
		stderr = math.Sqrt(variance / float64(runs))
	}
	return mean, stderr
}

// jitter returns a deterministic pseudo-random value in [-1, 1].
func jitter(seed, run uint64) float64 {
	x := seed ^ (run+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x%2001)/1000 - 1
}

// tensatOptions builds root-API options for a given k_multi.
func (c Config) tensatOptions(kmulti int) tensat.Options {
	return tensat.Options{
		NodeLimit:  c.NodeLimit,
		IterLimit:  c.IterLimit,
		KMulti:     kmulti,
		ILPTimeout: c.ILPTimeout,
	}
}

// kmultiFor returns the paper's per-model k_multi (§6.2: 1 everywhere,
// with Inception-v3 also reported at 2).
func kmultiFor(model string) int { return 1 }

// ModelRun is one optimizer-vs-baseline comparison on one model.
type ModelRun struct {
	Model string

	OrigRuntime float64

	TensatRuntime float64
	TensatStderr  float64
	TensatSpeedup float64 // percent, on simulated runtime
	TensatTime    time.Duration
	TensatExplore time.Duration
	TensatExtract time.Duration
	TensatENodes  int

	TasoRuntime float64
	TasoStderr  float64
	TasoSpeedup float64
	TasoTotal   time.Duration
	TasoBest    time.Duration
}

// RunModel optimizes one benchmark with both TENSAT and TASO.
func (c Config) RunModel(name string) (*ModelRun, error) {
	m, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	g := m.Build(c.Scale)
	_, rt := c.deviceAndRuntime()

	res, err := tensat.Optimize(g, c.tensatOptions(kmultiFor(name)))
	if err != nil {
		return nil, fmt.Errorf("%s: tensat: %w", name, err)
	}
	tres, err := taso.Search(g, rules.Default(), cost.NewT4(), taso.Options{
		N: c.TasoN, Alpha: c.TasoAlpha, Timeout: time.Hour, MaxMatchesPerRule: 2000,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: taso: %w", name, err)
	}

	orig, _ := c.measureRuntime(rt, g, 0)
	tnMean, tnErr := c.measureRuntime(rt, res.Graph, 1)
	tsMean, tsErr := c.measureRuntime(rt, tres.Graph, 2)

	return &ModelRun{
		Model:         name,
		OrigRuntime:   orig,
		TensatRuntime: tnMean,
		TensatStderr:  tnErr,
		TensatSpeedup: cost.SpeedupPercent(orig, tnMean),
		TensatTime:    res.ExploreTime + res.ExtractTime,
		TensatExplore: res.ExploreTime,
		TensatExtract: res.ExtractTime,
		TensatENodes:  res.ENodes,
		TasoRuntime:   tsMean,
		TasoStderr:    tsErr,
		TasoSpeedup:   cost.SpeedupPercent(orig, tsMean),
		TasoTotal:     tres.TotalTime,
		TasoBest:      tres.BestTime,
	}, nil
}

// RunAll runs RunModel over every benchmark.
func (c Config) RunAll() ([]*ModelRun, error) {
	var out []*ModelRun
	for _, m := range models.Benchmarks() {
		r, err := c.RunModel(m.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// explore runs only the exploration phase with the given settings.
func (c Config) explore(g *tensor.Graph, kmulti int, filter rewrite.FilterMode) (*rewrite.Explored, error) {
	r := rewrite.NewRunner(rules.Default())
	r.Filter = filter
	r.Limits = rewrite.Limits{
		MaxNodes: c.NodeLimit,
		MaxIters: c.IterLimit,
		KMulti:   kmulti,
		Timeout:  time.Hour,
	}
	return r.Run(g)
}

// ilpExtract runs ILP extraction with explicit cycle handling.
func (c Config) ilpExtract(ex *rewrite.Explored, cycles bool, topo ilp.TopoMode) (*extract.Result, error) {
	return extract.ILP(ex, cost.NewT4(), extract.ILPOptions{
		CycleConstraints: cycles,
		TopoMode:         topo,
		Timeout:          c.ILPTimeout,
	})
}

// fmtDur renders a duration compactly for tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// tableWriter accumulates aligned columns.
type tableWriter struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *tableWriter { return &tableWriter{header: header} }

func (t *tableWriter) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
