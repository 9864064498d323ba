package tensat

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"tensat/internal/cost"
	"tensat/internal/extract"
	"tensat/internal/ilp"
	"tensat/internal/ilp/backend"
	"tensat/internal/obs"
	"tensat/internal/rewrite"
	"tensat/internal/rules"
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

// Terminal reports whether the phase is a final state.
func (p Phase) Terminal() bool {
	return p == PhaseDone || p == PhaseCanceled || p == PhaseFailed
}

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

// Optimizer runs the TENSAT pipeline repeatedly with a rule set and
// cost model that are compiled once and shared by every submitted job.
// Construct with NewOptimizer and reuse freely: an Optimizer is safe
// for concurrent Submit calls. The zero value is not usable.
//
// Optimize and OptimizeContext remain as one-shot shims over this
// type; services or tools optimizing more than one graph should hold
// one Optimizer so the rule patterns are not re-parsed per call.
type Optimizer struct {
	model    CostModel
	registry *Registry

	rulesOnce sync.Once
	rules     []*Rule
	compiled  *rewrite.CompiledRules
}

// OptimizerOption configures NewOptimizer.
type OptimizerOption func(*Optimizer)

// WithRegistry sets the profile registry that resolves Options.RuleSet
// and Options.CostModelName (nil keeps DefaultRegistry). Registry
// entries are compiled at registration, so per-job resolution is a map
// lookup — the per-profile generalization of the optimizer's old
// compile-once behavior.
func WithRegistry(r *Registry) OptimizerOption {
	return func(o *Optimizer) { o.registry = r }
}

// NewOptimizer builds a reusable Optimizer.
func NewOptimizer(opts ...OptimizerOption) *Optimizer {
	o := &Optimizer{model: cost.NewT4()}
	for _, apply := range opts {
		apply(o)
	}
	return o
}

// Registry returns the profile registry this optimizer resolves
// Options.RuleSet and Options.CostModelName against.
func (o *Optimizer) Registry() *Registry { return o.reg() }

// reg resolves the registry lazily, so an optimizer that never names a
// profile (and brings its own rules) never compiles the built-ins.
func (o *Optimizer) reg() *Registry {
	if o.registry != nil {
		return o.registry
	}
	return DefaultRegistry()
}

// ruleSet resolves the optimizer-default rule set exactly once (the
// registry's taso-default entry), used by jobs that name no profile
// and bring no rules of their own. Named rule sets (Options.RuleSet)
// bypass this and hit the registry, where each set was compiled at
// registration.
func (o *Optimizer) ruleSet() ([]*Rule, *rewrite.CompiledRules) {
	o.rulesOnce.Do(func() {
		if rs, ok := o.reg().RuleSet(DefaultRuleSetName); ok {
			o.rules = rs
			o.compiled, _ = o.reg().compiledRuleSet(DefaultRuleSetName)
			return
		}
		o.rules = rules.Default()
		o.compiled = rewrite.CompileRules(o.rules)
	})
	return o.rules, o.compiled
}

// resolve fills the zero limits of opt from the paper defaults,
// mirroring what the original Optimize entry point did.
func (o *Optimizer) resolve(opt Options) Options {
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

// Job is one asynchronous optimization submitted to an Optimizer. All
// methods are safe for concurrent use from any goroutine.
type Job struct {
	cancel context.CancelFunc
	done   chan struct{}
	start  time.Time

	mu   sync.Mutex
	prog Progress

	// res and err are written exactly once before done is closed.
	res *Result
	err error
}

// Progress returns the latest snapshot. Until the job reaches a
// terminal phase, Elapsed is recomputed at call time so pollers see
// time advance even between pipeline events.
func (j *Job) Progress() Progress {
	j.mu.Lock()
	p := j.prog
	j.mu.Unlock()
	if !p.Phase.Terminal() {
		p.Elapsed = time.Since(j.start)
	}
	return p
}

// Done returns a channel closed when the job reaches a terminal phase.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result blocks until the job finishes and returns its outcome. A
// canceled job returns the context's error.
func (j *Job) Result() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Err returns the job's error without blocking: nil while running or
// after success, the failure otherwise.
func (j *Job) Err() error {
	select {
	case <-j.done:
		return j.err
	default:
		return nil
	}
}

// Cancel aborts the job. Exploration stops at its next check point
// and the pipeline unwinds with context.Canceled; canceling a finished
// job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// record updates the snapshot and forwards it to the user sink (called
// serially from the job's goroutine; sink runs outside the lock so it
// may call back into Progress).
func (j *Job) record(p Progress, sink func(Progress)) {
	p.Elapsed = time.Since(j.start)
	j.mu.Lock()
	j.prog = p
	j.mu.Unlock()
	if sink != nil {
		sink(p)
	}
}

// finish publishes the outcome, records the terminal snapshot, and
// releases the waiters.
func (j *Job) finish(res *Result, err error, sink func(Progress)) {
	j.mu.Lock()
	p := j.prog
	j.mu.Unlock()
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
	p.Elapsed = time.Since(j.start)
	j.mu.Lock()
	j.prog = p
	j.mu.Unlock()
	if sink != nil {
		sink(p)
	}
	j.res, j.err = res, err
	close(j.done)
	j.cancel() // release the job context's resources
}

// Submit starts an asynchronous optimization of g and returns its Job
// handle immediately. The job runs until completion, cancellation of
// ctx, or Job.Cancel. opts follows the same zero-means-default rules
// as Optimize; opts.Rules and opts.CostModel override the optimizer's
// compiled set for this job only.
func (o *Optimizer) Submit(ctx context.Context, g *Graph, opts Options) (*Job, error) {
	if g == nil {
		return nil, fmt.Errorf("tensat: nil graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = o.resolve(opts)
	// Validate profile names now, so a typo fails the submission with a
	// client error instead of a dead job.
	if opts.Rules == nil && opts.RuleSet != "" {
		if _, ok := o.reg().RuleSet(opts.RuleSet); !ok {
			return nil, fmt.Errorf("%w: rule set %q (known: %s)",
				ErrUnknownProfile, opts.RuleSet, strings.Join(o.reg().RuleSetNames(), ", "))
		}
	}
	if opts.CostModel == nil && opts.CostModelName != "" {
		if _, ok := o.reg().CostModel(opts.CostModelName); !ok {
			return nil, fmt.Errorf("%w: cost model %q (known: %s)",
				ErrUnknownProfile, opts.CostModelName, strings.Join(o.reg().CostModelNames(), ", "))
		}
	}
	if !backend.Valid(opts.ILPSolver) {
		return nil, fmt.Errorf("tensat: unknown ILP solver %q (known: %s)",
			opts.ILPSolver, strings.Join(backend.Names(), ", "))
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		cancel: cancel,
		done:   make(chan struct{}),
		start:  time.Now(),
		prog:   Progress{Phase: PhaseQueued},
	}
	go func() {
		res, err := o.runRecover(jctx, g, opts, func(p Progress) { j.record(p, opts.Progress) })
		j.finish(res, err, opts.Progress)
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
func (o *Optimizer) runRecover(ctx context.Context, g *Graph, opt Options, sink func(Progress)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return o.run(ctx, g, opt, sink)
}

// run executes the full pipeline (exploration, then extraction),
// reporting each stage through sink. It is the engine behind both
// Submit and the synchronous Optimize shims.
func (o *Optimizer) run(ctx context.Context, g *Graph, opt Options, sink func(Progress)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Resolution order for each profile half: an explicit object on the
	// Options, then a registry name, then the optimizer's own default.
	// Named and default rule sets carry their registration-time pattern
	// compilation; per-job Rules objects are compiled by the runner.
	ruleset := opt.Rules
	var compiled *rewrite.CompiledRules
	if ruleset == nil && opt.RuleSet != "" {
		if rs, ok := o.reg().RuleSet(opt.RuleSet); ok {
			ruleset = rs
			compiled, _ = o.reg().compiledRuleSet(opt.RuleSet)
		}
	}
	if ruleset == nil {
		ruleset, compiled = o.ruleSet()
	}
	model := opt.CostModel
	if model == nil && opt.CostModelName != "" {
		if m, ok := o.reg().CostModel(opt.CostModelName); ok {
			model = m
		}
	}
	if model == nil {
		model = o.model
	}

	// One trace serves the whole run; nil when tracing is off, which
	// every recording call tolerates at the cost of a nil check.
	var tr *obs.Trace
	if opt.Trace {
		tr = obs.NewTrace("optimize")
	}

	runner := rewrite.NewRunner(ruleset)
	runner.Compiled = compiled
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
	switch opt.CycleFilter {
	case FilterVanilla:
		runner.Filter = rewrite.FilterVanilla
	case FilterNone:
		runner.Filter = rewrite.FilterNone
	default:
		runner.Filter = rewrite.FilterEfficient
	}
	// ExploreTimeout stays the runner's soft budget (Limits.Timeout,
	// set above): expiry keeps the partial e-graph. The caller's ctx is
	// the hard stop — both flow into RunContext, whose Stats
	// distinguish HitTimeout from Canceled.
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
		Saturated:      ex.Stats.Saturated,
		Truncated:      ex.Stats.HitTimeout || ex.Stats.Canceled,
		Canceled:       ex.Stats.Canceled,
		FilteredNodes:  ex.Stats.FilteredNodes,
		Search: SearchStats{
			Time:    ex.Stats.SearchTime,
			Scanned: ex.Stats.SearchScanned,
			Pruned:  ex.Stats.SearchPruned,
			Dirty:   ex.Stats.SearchDirty,
			Clean:   ex.Stats.SearchClean,
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
