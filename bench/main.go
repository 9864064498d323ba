// Command bench is this repository's benchmark: four workloads that
// measure TENSAT end to end — as a library and as a tensatd fleet over
// real sockets — and layer by layer. See README.md.
//
//	go run -C bench . run [-workload W] [-seed N] [-trace 0|1] [-out FILE]
//	go run -C bench . compare A.json B.json
//	go run -C bench . selfcheck
//
// Without a sub-command the arguments are `run`'s, which is how the PR
// driver calls it (BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	file    *benchmarkFile
	root    string // the checkout: where BENCHMARK.json and cmd/tensatd are
	outDir  string // bench/out: reports and traces, ignored by git
	scratch string // a directory of this run's own under outDir, removed at exit
	seed    int64
	seconds float64
	trace   bool
}

func (c runConfig) traceFile(workload string) string {
	return filepath.Join(c.outDir, "trace-"+workload+".json")
}

// workload is one named set of inputs. run fills the report's counts,
// rows and check failures and returns the metric values: the
// end-to-end ones for an untraced run, the per-layer ones for a traced
// run.
type workload struct {
	name string
	run  func(context.Context, runConfig, *runReport) (map[string]float64, error)
}

var workloads = []workload{
	{name: "zoo_ilp", run: runZoo(zooILPRows)},
	{name: "zoo_explore", run: runZoo(zooExploreRows)},
	{name: "serve_hot_tiers", run: runHotTiers},
	{name: "serve_cold_mix", run: runColdMix},
}

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch cmd {
	case "run":
		err = cmdRun(ctx, args)
	case "compare":
		err = cmdCompare(args)
	case "selfcheck":
		err = cmdSelfcheck(ctx, args)
	default:
		err = fmt.Errorf("unknown sub-command %q (known: run, compare, selfcheck)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// newRunConfig locates the checkout and reads BENCHMARK.json, which
// sets the run length and lists the metrics.
func newRunConfig(seed int64, trace bool) (runConfig, error) {
	root, err := repoRoot()
	if err != nil {
		return runConfig{}, err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return runConfig{}, err
	}
	cfg := runConfig{file: bf, root: root, outDir: filepath.Join(root, "bench", "out"),
		seed: seed, seconds: float64(bf.RunSeconds), trace: trace}
	return cfg, os.MkdirAll(cfg.outDir, 0o755)
}

// metricDefs lists what a run reports: the end-to-end metrics untraced,
// the per-layer metrics traced.
func (c runConfig) metricDefs() []metricDef {
	if c.trace {
		return c.file.PerLayer
	}
	return c.file.EndToEnd
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, untraced then traced, each run a process of its own)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and orders")
	// The run length is run_seconds of BENCHMARK.json. The PR driver
	// passes that value on every call, so one run takes it as a flag.
	seconds := fs.Float64("seconds", 0, "the PR driver's copy of run_seconds (with -workload)")
	trace := fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics (with -workload)")
	runs := fs.Int("runs", 1, "untraced runs per workload, with consecutive seeds (without -workload)")
	out := fs.String("out", "", "write the JSON report here (default: under bench/out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg, err := newRunConfig(*seed, *trace != 0)
	if err != nil {
		return err
	}
	if *name == "" {
		if *seconds != 0 {
			return fmt.Errorf("-seconds goes with -workload; a set of runs takes run_seconds of BENCHMARK.json")
		}
		suite, err := runSuite(ctx, cfg, *runs, os.Stdout)
		if err != nil {
			return err
		}
		path := *out
		if path == "" {
			path = filepath.Join(cfg.outDir, "report.json")
		}
		fmt.Println("suite report:", path)
		return writeJSON(path, suite)
	}
	if *seconds > 0 {
		cfg.seconds = *seconds
	}
	rep, err := runOne(ctx, cfg, *name)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, fmt.Sprintf("report-%s-trace%d.json", rep.Workload, *trace))
	}
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	rep.print(os.Stdout, cfg.metricDefs())
	fmt.Println("report:", path)
	// The PR driver reads the last line of standard output.
	fmt.Println(rep.contractLine())
	if !rep.Correct {
		return fmt.Errorf("%s: output checks failed", rep.Workload)
	}
	return nil
}

// runOne runs one workload in this process and returns its report.
func runOne(ctx context.Context, cfg runConfig, name string) (*runReport, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch

	rep := &runReport{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Machine: machine(cfg.root)}
	values, err := w.run(ctx, cfg, rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := rep.setMetrics(cfg.metricDefs(), values); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.Correct = len(rep.CheckFailures) == 0 && rep.Failed == 0
	return rep, nil
}
