// Command tensat optimizes one of the benchmark models with the
// TENSAT pipeline and prints a report.
//
// Usage:
//
//	tensat -model NasRNN [-scale full] [-kmulti 1] [-extractor ilp]
//	       [-filter efficient] [-nodelimit 20000] [-iters 15]
//	       [-ruleset taso-default] [-costmodel t4] [-progress]
//
// -extractor, -filter and -scale take only the names listed; any other
// value is a usage error (exit 2).
//
// With -progress, live lines trace the run as it happens: one per
// exploration iteration (e-graph growth) and one per ILP incumbent
// (the anytime answer improving). With -trace out.json, the full
// per-phase span tree (explore iterations, search/apply/rebuild,
// extraction, ILP model+solve with incumbent events) is written as
// Chrome trace-event JSON — open it in https://ui.perfetto.dev.
//
// -ruleset and -costmodel select named optimization profiles: the
// built-ins (rule sets taso-default, taso-single; devices t4, a100,
// cpu) plus anything loaded with -rules-dir (*.rules files) and
// -device-dir (*.json device specs).
//
// The vet-rules subcommand runs the static rule/profile verifier
// (internal/rulecheck) without optimizing anything:
//
//	tensat vet-rules [-json] [-strict] [-costmodel t4] <dir-or-file>...
//
// It checks the built-in rule sets plus every named .rules file or
// directory for shape-unsound rewrites, rules that can never fire,
// dead targets, and target operators the cost model cannot price.
// Exit status 1 means error findings (or any finding with -strict);
// -json emits the findings as a machine-readable array.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"tensat"
	"tensat/internal/extract"
	"tensat/internal/ilp"
	"tensat/internal/ilp/lpfile"
	"tensat/internal/models"
	"tensat/internal/rewrite"
	"tensat/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tensat: ")

	// Subcommands dispatch before flag parsing; everything else is the
	// classic flag-driven optimizer run.
	if len(os.Args) > 1 && os.Args[1] == "vet-rules" {
		os.Exit(vetRulesMain(os.Args[2:]))
	}

	var (
		model     = flag.String("model", "NasRNN", "benchmark model (NasRNN, BERT, ResNeXt-50, NasNet-A, SqueezeNet, VGG-19, Inception-v3, ResNet-50)")
		load      = flag.String("load", "", "load a graph from a .sexpr file instead of -model")
		save      = flag.String("save", "", "write the optimized graph to this file")
		dot       = flag.String("dot", "", "write the optimized graph in Graphviz dot format to this file")
		kmulti    = flag.Int("kmulti", 1, "iterations of multi-pattern rewrites (k_multi)")
		nodeLimit = flag.Int("nodelimit", 20000, "e-graph node limit (N_max)")
		iters     = flag.Int("iters", 15, "exploration iteration limit (k_max)")
		ilpTime   = flag.Duration("ilptimeout", 2*time.Minute, "ILP solver timeout")
		ilpSolver = flag.String("ilp-solver", "", "ILP backend: builtin (parallel branch-and-bound), builtin-seq, cbc or highs (external binaries on PATH)")
		ilpMPS    = flag.String("ilp-mps", "", "explore, then write the extraction ILP (as built, before presolve) as a free-format MPS file and exit without solving")
		workers   = flag.Int("workers", 0, "deprecated, no effect: exploration searches on one goroutine")
		progress  = flag.Bool("progress", false, "print live progress lines (iterations, e-graph growth, ILP incumbents) to stderr")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto or chrome://tracing)")
		ruleset   = flag.String("ruleset", "", "named rule set profile (e.g. taso-default, taso-single, or a loaded .rules file)")
		costmodel = flag.String("costmodel", "", "named device cost model (e.g. t4, a100, cpu, or a loaded device spec)")
		rulesDir  = flag.String("rules-dir", "", "load every *.rules file in this directory before resolving -ruleset")
		deviceDir = flag.String("device-dir", "", "load every *.json device spec in this directory before resolving -costmodel")
	)
	extractor, filter, scale := choiceFlags(flag.CommandLine)
	flag.Parse()

	if *workers < 0 {
		log.Fatalf("-workers must be >= 0, got %d", *workers)
	}
	registry := tensat.DefaultRegistry()
	if *rulesDir != "" {
		if _, err := registry.LoadRulesDir(*rulesDir); err != nil {
			log.Fatal(err)
		}
	}
	if *deviceDir != "" {
		if _, err := registry.LoadDevicesDir(*deviceDir); err != nil {
			log.Fatal(err)
		}
	}

	var g *tensat.Graph
	name := *model
	if *load != "" {
		data, err := os.ReadFile(*load)
		if err != nil {
			log.Fatal(err)
		}
		g, err = tensor.UnmarshalGraph(data)
		if err != nil {
			log.Fatalf("parsing %s: %v", *load, err)
		}
		name = *load
	} else {
		m, err := models.ByName(*model)
		if err != nil {
			log.Fatal(err)
		}
		g = m.Build(models.Scale(scale.i))
	}

	opt := tensat.DefaultOptions()
	opt.KMulti = *kmulti
	opt.NodeLimit = *nodeLimit
	opt.IterLimit = *iters
	opt.ILPTimeout = *ilpTime
	opt.ILPSolver = *ilpSolver
	opt.Workers = *workers
	opt.RuleSet = *ruleset
	opt.CostModelName = *costmodel
	opt.Extractor = tensat.Extractor(extractor.i)
	opt.CycleFilter = tensat.CycleFilter(filter.i)

	if *progress {
		opt.Progress = printProgress
	}
	if *traceOut != "" {
		opt.Trace = true
	}

	// Run through the job API: Ctrl-C cancels the job cleanly instead
	// of killing the process mid-pipeline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *ilpMPS != "" {
		if err := exportMPS(ctx, g, opt, registry, *ilpMPS); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote extraction ILP for %s to %s\n", name, *ilpMPS)
		return
	}

	job, err := tensat.NewOptimizer().Submit(ctx, g, opt)
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model:            %s (scale=%s)\n", name, scale)
	fmt.Printf("original cost:    %.1f us   ops: %s\n", res.OrigCost, tensor.HistogramString(g.OpHistogram()))
	fmt.Printf("optimized cost:   %.1f us   ops: %s\n", res.OptCost, tensor.HistogramString(res.Graph.OpHistogram()))
	fmt.Printf("speedup:          %.1f%%\n", res.SpeedupPercent)
	fmt.Printf("exploration:      %v  (%d iterations, %d e-nodes, %d e-classes, saturated=%v)\n",
		res.ExploreTime.Round(time.Millisecond), res.Iterations, res.ENodes, res.EClasses, res.Saturated)
	fmt.Printf("extraction:       %v  (filtered e-nodes: %d, ILP optimal: %v)\n",
		res.ExtractTime.Round(time.Millisecond), res.FilteredNodes, res.ILPOptimal)
	if res.ILP.Solver != "" {
		fmt.Printf("ilp:              solver=%s workers=%d incumbents=%d  presolve: fixed=%d dropped=%d (%.0f%% of candidates)\n",
			res.ILP.Solver, res.ILP.Workers, res.ILP.Incumbents,
			res.ILP.PresolveFixed, res.ILP.PresolveDropped, res.ILP.PresolveRatio*100)
	}

	if err := res.Graph.Validate(); err != nil {
		log.Fatalf("optimized graph failed validation: %v", err)
	}
	if *save != "" {
		data, err := res.Graph.MarshalText()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*save, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved optimized graph to %s\n", *save)
	}
	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(res.Graph.Dot()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved dot rendering to %s\n", *dot)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tensat.WriteChromeTrace(f, res.Trace); err != nil {
			f.Close()
			log.Fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved trace to %s (open in Perfetto)\n", *traceOut)
	}
}

// exportMPS runs the exploration phase only, formulates the extraction
// ILP over the resulting e-graph, and writes it as a free-format MPS
// file any MIP solver can read. This is the model as built:
// -extractor ilp presolves it before a backend sees it, so what the
// backends solve is a reduction of this file with the same optimum.
func exportMPS(ctx context.Context, g *tensat.Graph, opt tensat.Options, registry *tensat.Registry, path string) error {
	rs := tensat.DefaultRules()
	if opt.RuleSet != "" {
		named, ok := registry.RuleSet(opt.RuleSet)
		if !ok {
			return fmt.Errorf("unknown ruleset %q", opt.RuleSet)
		}
		rs = named
	}
	model := tensat.DefaultCostModel()
	if opt.CostModelName != "" {
		named, ok := registry.CostModel(opt.CostModelName)
		if !ok {
			return fmt.Errorf("unknown costmodel %q", opt.CostModelName)
		}
		model = named
	}
	runner := rewrite.NewRunner(rs)
	runner.Limits = rewrite.Limits{
		MaxNodes: opt.NodeLimit,
		MaxIters: opt.IterLimit,
		KMulti:   opt.KMulti,
		Timeout:  opt.ExploreTimeout,
	}
	switch opt.CycleFilter {
	case tensat.FilterVanilla:
		runner.Filter = rewrite.FilterVanilla
	case tensat.FilterNone:
		runner.Filter = rewrite.FilterNone
	default:
		runner.Filter = rewrite.FilterEfficient
	}
	ex, err := runner.RunContext(ctx, g)
	if err != nil {
		return err
	}
	topo := ilp.TopoReal
	if opt.TopoInt {
		topo = ilp.TopoInt
	}
	p, _, err := extract.BuildProblem(ex, model, extract.ILPOptions{
		CycleConstraints: opt.CycleFilter == tensat.FilterNone,
		TopoMode:         topo,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lpfile.WriteMPS(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printProgress renders one live progress line per pipeline event.
func printProgress(p tensat.Progress) {
	at := p.Elapsed.Round(10 * time.Millisecond)
	switch p.Phase {
	case tensat.PhaseExplore:
		fmt.Fprintf(os.Stderr, "[%8v] explore  iter=%-3d enodes=%-6d eclasses=%d\n",
			at, p.Iteration, p.ENodes, p.EClasses)
	case tensat.PhaseExtract:
		if p.BestCost > 0 {
			fmt.Fprintf(os.Stderr, "[%8v] extract  incumbent=%.1f us\n", at, p.BestCost)
		} else {
			fmt.Fprintf(os.Stderr, "[%8v] extract  starting over %d e-nodes\n", at, p.ENodes)
		}
	case tensat.PhaseDone:
		fmt.Fprintf(os.Stderr, "[%8v] done     cost=%.1f us\n", at, p.BestCost)
	default:
		fmt.Fprintf(os.Stderr, "[%8v] %s\n", at, p.Phase)
	}
}
