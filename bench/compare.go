package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteReport is one set of runs: every workload, untraced `runs`
// times with consecutive seeds, and traced once.
type suiteReport struct {
	Machine machineInfo `json:"machine"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runReport `json:"runs"`
}

// runSuite makes one set of runs. Each run is a process of its own —
// this binary again, with -workload — so that a run's peak memory and
// warm-up are its own, exactly as when the PR driver calls it.
func runSuite(ctx context.Context, cfg runConfig, runs int, stdout io.Writer) (*suiteReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	suite := &suiteReport{Machine: machine(cfg.root), Seed: cfg.seed, Seconds: cfg.seconds}
	child := func(name string, seed int64, trace int) error {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", name, seed, trace))
		cmd := exec.CommandContext(ctx, self, "run", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-trace", strconv.Itoa(trace), "-out", path)
		cmd.Dir = cfg.root
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, trace, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rep runReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		suite.Runs = append(suite.Runs, rep)
		return nil
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			if err := child(w.name, cfg.seed+int64(i), 0); err != nil {
				return nil, err
			}
		}
		if err := child(w.name, cfg.seed, 1); err != nil {
			return nil, err
		}
	}
	return suite, nil
}

func loadSuite(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteReport
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (s *suiteReport) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// baselineValue reads one end-to-end metric of one workload from the
// first committed set of runs.
func baselineValue(root, workload, metric string) (float64, error) {
	path := filepath.Join(root, "bench", "baseline", "selfcheck-a.json")
	s, err := loadSuite(path)
	if err != nil {
		return 0, err
	}
	v := s.values(workload, metric)
	if len(v) == 0 {
		return 0, fmt.Errorf("%s holds no %s of %s", path, metric, workload)
	}
	return v[0], nil
}

// verdict is how one metric on one workload moved from set A to set B.
type verdict struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share of A's median by which B is worse; negative when better
	Spread           float64 // the wider of the two sets' spreads
	Bound            float64
	Status           string // ok, regressed or unresolved
}

// judge applies a metric's bound to two sets of values. A change is
// read against the run-to-run spread: when that is wider than the
// bound, the metric is unresolved — unless every run of B reads better
// than every run of A, which no noise explains.
func judge(def metricDef, a, b []float64) verdict {
	v := verdict{Metric: def.Name, A: median(a), B: median(b), Bound: def.Bound}
	v.Spread = spread(a)
	if s := spread(b); s > v.Spread {
		v.Spread = s
	}
	if v.A != 0 {
		v.Worse = (v.B - v.A) / v.A
		if def.Better == "higher" {
			v.Worse = -v.Worse
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if (def.Better == "higher" && y <= x) || (def.Better != "higher" && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	// Set-up is timed a few times per run, not thousands: its spread is
	// wide by construction, and the PR driver too holds only its median
	// to the bound.
	case v.Spread > def.Bound && !allBetter && def.Name != "setup_s":
		v.Status = "unresolved"
	case v.Worse > def.Bound:
		v.Status = "regressed"
	default:
		v.Status = "ok"
	}
	return v
}

// compareSuites judges every end-to-end metric on every workload, one
// row per pairing, with the bounds of BENCHMARK.json. Run length sets
// pass and sample counts, so only runs of one length compare.
func compareSuites(bf *benchmarkFile, a, b *suiteReport) ([]verdict, error) {
	if len(a.Runs) == 0 || len(b.Runs) == 0 {
		return nil, fmt.Errorf("a report without runs does not compare")
	}
	for _, s := range []*suiteReport{a, b} {
		for _, r := range s.Runs {
			if r.Seconds != a.Runs[0].Seconds {
				return nil, fmt.Errorf("runs of %v s and of %v s do not compare", a.Runs[0].Seconds, r.Seconds)
			}
		}
	}
	var out []verdict
	for _, w := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			va, vb := a.values(w.Name, def.Name), b.values(w.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(def, va, vb)
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out, nil
}

func printVerdicts(w io.Writer, vs []verdict) (regressed, unresolved int) {
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "status")
	for _, v := range vs {
		fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.1f%% %7.1f%% %6.1f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, v.Worse*100, v.Spread*100, v.Bound*100, v.Status)
		switch v.Status {
		case "regressed":
			regressed++
		case "unresolved":
			unresolved++
		}
	}
	return regressed, unresolved
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json (two reports written by `run` without -workload)")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := loadSuite(args[0])
	if err != nil {
		return err
	}
	b, err := loadSuite(args[1])
	if err != nil {
		return err
	}
	vs, err := compareSuites(bf, a, b)
	if err != nil {
		return err
	}
	regressed, unresolved := printVerdicts(os.Stdout, vs)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressed)
	}
	return nil
}

// cmdSelfcheck makes two sets of runs of the same code and fails if
// the benchmark's own bounds tell them apart, or cannot resolve them.
func cmdSelfcheck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "untraced runs per workload and set")
	seed := fs.Int64("seed", 1, "first seed of the first set; the second set continues from it")
	dir := fs.String("dir", "", "write the two reports here as selfcheck-a.json and selfcheck-b.json (default: bench/out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := newRunConfig(*seed, false)
	if err != nil {
		return err
	}
	bf := cfg.file
	if *dir == "" {
		*dir = cfg.outDir
	}
	var sets []*suiteReport
	for i, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		c := cfg
		c.seed = *seed + int64(i**runs)
		s, err := runSuite(ctx, c, *runs, os.Stdout)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(*dir, name), s); err != nil {
			return err
		}
		sets = append(sets, s)
	}
	vs, err := compareSuites(bf, sets[0], sets[1])
	if err != nil {
		return err
	}
	regressed, unresolved := printVerdicts(os.Stdout, vs)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed+unresolved > 0 {
		return fmt.Errorf("two sets of runs of the same code disagree: %d regressed, %d unresolved", regressed, unresolved)
	}
	return nil
}
