package tensat

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/ilp"
	"tensat/internal/ilp/backend"
	"tensat/internal/obs"
	"tensat/internal/rewrite"
)

// Phase identifies where in the pipeline a job currently is.
type Phase string

const (
	// PhaseQueued means the job was accepted but optimization has not
	// started yet (e.g. it is waiting for a worker slot).
	PhaseQueued Phase = "queued"
	// PhaseExplore is the equality-saturation exploration phase.
	PhaseExplore Phase = "explore"
	// PhaseExtract is the extraction phase (greedy or ILP).
	PhaseExtract Phase = "extract"
	// PhaseDone, PhaseCanceled and PhaseFailed are terminal.
	PhaseDone     Phase = "done"
	PhaseCanceled Phase = "canceled"
	PhaseFailed   Phase = "failed"
)

// Progress is a point-in-time snapshot of a running optimization job.
// During PhaseExplore the e-graph sizes grow with each iteration;
// during PhaseExtract, BestCost tracks the ILP incumbent (the anytime
// answer the job would return if stopped now).
type Progress struct {
	Phase Phase
	// Iteration counts completed exploration iterations.
	Iteration int
	// ENodes and EClasses are the e-graph sizes at the snapshot.
	ENodes, EClasses int
	// BestCost is the cost of the best extraction found so far; zero
	// until the extractor reports a first incumbent.
	BestCost float64
	// Elapsed is the time since the job was submitted. For a terminal
	// snapshot it is frozen at the job's total runtime.
	Elapsed time.Duration
}

// Optimizer runs the TENSAT pipeline against a profile Registry: each
// submitted job resolves its rule set and cost model there (see
// Registry.Resolve), sharing the pattern compilation the registry did
// when the rule set was registered. Construct with NewOptimizer and
// reuse freely: an Optimizer is safe for concurrent Submit calls. The
// zero value is not usable.
//
// Optimize and OptimizeContext remain as one-shot shims over this
// type.
type Optimizer struct {
	registry *Registry
}

// OptimizerOption configures NewOptimizer.
type OptimizerOption func(*Optimizer)

// WithRegistry sets the profile registry that resolves each job's rule
// set and cost model (nil keeps DefaultRegistry).
func WithRegistry(r *Registry) OptimizerOption {
	return func(o *Optimizer) { o.registry = r }
}

// NewOptimizer builds a reusable Optimizer.
func NewOptimizer(opts ...OptimizerOption) *Optimizer {
	o := &Optimizer{}
	for _, apply := range opts {
		apply(o)
	}
	if o.registry == nil {
		o.registry = DefaultRegistry()
	}
	return o
}

// withDefaultLimits fills the zero limits of opt from the paper
// defaults, mirroring what the original Optimize entry point did.
func withDefaultLimits(opt Options) Options {
	def := DefaultOptions()
	if opt.NodeLimit == 0 {
		opt.NodeLimit = def.NodeLimit
	}
	if opt.IterLimit == 0 {
		opt.IterLimit = def.IterLimit
	}
	if opt.ILPTimeout == 0 {
		opt.ILPTimeout = def.ILPTimeout
	}
	return opt
}

// Job is one asynchronous optimization submitted to an Optimizer. Its
// progress reaches the caller through Options.Progress; its methods
// are safe for concurrent use from any goroutine.
type Job struct {
	done chan struct{}
	// res and err are written exactly once before done is closed.
	res *Result
	err error
}

// Done returns a channel closed when the job reaches a terminal phase.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result blocks until the job finishes and returns its outcome. A
// canceled job returns the context's error.
func (j *Job) Result() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Terminal is a run's last snapshot, given the last one it reported
// and its outcome: PhaseDone with the result's iteration, e-graph sizes
// and cost when err is nil; PhaseCanceled when err is a context's
// cancellation or deadline; PhaseFailed otherwise, both keeping last's
// figures. Elapsed is last's. It is the one classification of an
// outcome: Submit's terminal snapshot and the serving layer's job
// status both come from it.
func Terminal(last Progress, res *Result, err error) Progress {
	p := last
	switch {
	case err == nil:
		p.Phase = PhaseDone
		p.Iteration = res.Iterations
		p.ENodes, p.EClasses = res.ENodes, res.EClasses
		p.BestCost = res.OptCost
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		p.Phase = PhaseCanceled
	default:
		p.Phase = PhaseFailed
	}
	return p
}

// Submit starts an asynchronous optimization of g and returns its Job
// handle immediately. The job runs until completion or cancellation of
// ctx. A zero NodeLimit, IterLimit or ILPTimeout in opts takes the
// paper's default, but a zero KMulti stays zero: Figure 7's k_multi = 0
// baseline, where no multi-pattern rule fires (DefaultOptions sets 1).
// The profile is resolved against the optimizer's registry now, so an
// unknown name fails the submission with ErrUnknownProfile instead of
// a dead job. opts.Progress, when set, receives every snapshot of the
// run, ending with a terminal one.
func (o *Optimizer) Submit(ctx context.Context, g *Graph, opts Options) (*Job, error) {
	if g == nil {
		return nil, fmt.Errorf("tensat: nil graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = withDefaultLimits(opts)
	prof, err := o.registry.Resolve(opts)
	if err != nil {
		return nil, err
	}
	if !backend.Valid(opts.ILPSolver) {
		return nil, fmt.Errorf("tensat: unknown ILP solver %q (known: %s)",
			opts.ILPSolver, strings.Join(backend.Names(), ", "))
	}
	j := &Job{done: make(chan struct{})}
	start := time.Now()
	go func() {
		// The pipeline calls push serially (ILP incumbents arrive from
		// solver workers, one at a time under the solver's incumbent
		// lock, which orders them), so last needs no lock of its own.
		last := Progress{Phase: PhaseQueued}
		push := func(p Progress) {
			p.Elapsed = time.Since(start)
			last = p
			if opts.Progress != nil {
				opts.Progress(p)
			}
		}
		res, err := runRecover(ctx, g, opts, prof, push)
		push(Terminal(last, res, err))
		j.res, j.err = res, err
		close(j.done)
	}()
	return j, nil
}

// PanicError is what a job that panicked mid-pipeline fails with: the
// recovered value plus the goroutine stack at the point of the panic.
// A buggy rewrite rule or cost model fails its own job this way
// instead of killing the process; serving layers map it to a 500-class
// internal error and must never cache the job as a result.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("tensat: internal panic: %v", e.Value)
}

// runRecover is run with a panic barrier: every Submit-spawned job
// goroutine goes through it, so a panic anywhere in exploration or
// extraction becomes a PanicError on the job rather than a crash.
func runRecover(ctx context.Context, g *Graph, opt Options, prof Profile, sink func(Progress)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return run(ctx, g, opt, prof, sink)
}

// run executes the full pipeline (exploration, then extraction) with
// the profile Submit resolved, reporting each stage through sink. It
// is the engine behind both Submit and the synchronous Optimize shims.
func run(ctx context.Context, g *Graph, opt Options, prof Profile, sink func(Progress)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	model := prof.CostModel

	// One trace serves the whole run; nil when tracing is off, which
	// every recording call tolerates at the cost of a nil check.
	var tr *obs.Trace
	if opt.Trace {
		tr = obs.NewTrace("optimize")
	}

	runner := rewrite.NewRunner(prof.Rules)
	runner.Compiled = prof.compiled
	runner.Trace = tr
	runner.Limits = rewrite.Limits{
		MaxNodes: opt.NodeLimit,
		MaxIters: opt.IterLimit,
		KMulti:   opt.KMulti,
		Timeout:  opt.ExploreTimeout,
	}
	if sink != nil {
		runner.Progress = func(iteration, enodes, eclasses int) {
			sink(Progress{
				Phase:     PhaseExplore,
				Iteration: iteration,
				ENodes:    enodes,
				EClasses:  eclasses,
			})
		}
	}
	runner.Filter = opt.CycleFilter
	// ExploreTimeout stays the runner's soft budget (Limits.Timeout,
	// set above): expiry keeps the partial e-graph. The caller's ctx is
	// the hard stop — both flow into RunContext, whose Stats
	// distinguish a timeout from a cancellation.
	ex, err := runner.RunContext(ctx, g)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if sink != nil {
		sink(Progress{
			Phase:     PhaseExtract,
			Iteration: ex.Stats.Iterations,
			ENodes:    ex.Stats.ENodes,
			EClasses:  ex.Stats.EClasses,
		})
	}
	var res *extract.Result
	tr.Begin("extract")
	switch opt.Extractor {
	case ExtractGreedy:
		tr.Begin("greedy")
		res, err = extract.GreedyContext(ctx, ex, model)
		tr.End()
	default:
		topo := ilp.TopoReal
		if opt.TopoInt {
			topo = ilp.TopoInt
		}
		ilpOpts := extract.ILPOptions{
			CycleConstraints: opt.CycleFilter == FilterNone,
			TopoMode:         topo,
			Timeout:          opt.ILPTimeout,
			Solver:           opt.ILPSolver,
			Trace:            tr,
		}
		if sink != nil {
			ilpOpts.OnIncumbent = func(cost float64) {
				sink(Progress{
					Phase:     PhaseExtract,
					Iteration: ex.Stats.Iterations,
					ENodes:    ex.Stats.ENodes,
					EClasses:  ex.Stats.EClasses,
					BestCost:  cost,
				})
			}
		}
		res, err = extract.ILPContext(ctx, ex, model, ilpOpts)
	}
	tr.End() // extract
	if err != nil {
		// Cancellation needs no special-casing here: the ILP solver
		// surfaces a pre-incumbent cancellation as the context's own
		// error (wrapped, so errors.Is still classifies it), reserving
		// ErrTimeout for its deadline and stall budgets.
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	orig := cost.GraphCost(model, g)
	out := &Result{
		Graph:          res.Graph,
		OrigCost:       orig,
		OptCost:        res.Cost,
		SpeedupPercent: cost.SpeedupPercent(orig, res.Cost),
		ExploreTime:    ex.Stats.ExploreTime,
		ExtractTime:    res.Time,
		ApplyTime:      ex.Stats.ApplyTime,
		RebuildTime:    ex.Stats.RebuildTime,
		ENodes:         ex.Stats.ENodes,
		EClasses:       ex.Stats.EClasses,
		Iterations:     ex.Stats.Iterations,
		Saturated:      ex.Stats.Stop == rewrite.StopSaturated,
		Truncated:      ex.Stats.Stop == rewrite.StopTimeout || ex.Stats.Stop == rewrite.StopCanceled,
		Canceled:       ex.Stats.Stop == rewrite.StopCanceled,
		FilteredNodes:  ex.Stats.FilteredNodes,
		Search: SearchStats{
			Time:    ex.Stats.SearchTime,
			Scanned: ex.Stats.SearchScanned,
			Pruned:  ex.Stats.SearchPruned,
			Matches: ex.Stats.SearchMatches,
		},
	}
	if res.ILP != nil {
		out.ILPOptimal = res.ILP.Optimal
		out.ILP = ILPStats{
			Solver:     res.Solver,
			Workers:    res.ILP.Workers,
			Explored:   res.ILP.Explored,
			Incumbents: res.ILP.Incumbents,
		}
		if res.Reduction != nil {
			out.ILP.PresolveFixed = res.Reduction.VarsFixed
			out.ILP.PresolveDropped = res.Reduction.NodesDropped
			out.ILP.PresolveRemoved = res.Reduction.ConstraintsRemoved
			out.ILP.PresolveRatio = res.Reduction.Ratio()
		}
	}
	out.Trace = tr.Close()
	return out, nil
}
