// Package backend makes the extraction ILP solver pluggable. The
// paper runs SCIP through OR-tools; this repo's builtin solver is a
// specialized branch-and-bound. Both worlds are reachable through one
// interface: the builtin engine at any worker count, and an
// external-subprocess adapter that shells out to any MPS-speaking MIP
// solver on PATH — CBC and HiGHS are wired up — writing the model with
// lpfile, parsing the solution file back, and having the model judge
// the selection (ilp.Problem.Check) before trusting it. External
// solvers are entirely optional: nothing links against them (zero new
// Go dependencies), and when the binary is absent the adapter reports
// ErrUnavailable so callers can fall back or fail loudly, their choice.
package backend

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"tensat/internal/ilp"
	"tensat/internal/ilp/lpfile"
)

// Solver solves extraction ILP problems. Implementations must honor
// ctx cancellation and the problem's Timeout, and must return
// solutions whose NodeOf covers exactly the root closure.
type Solver interface {
	// Name is the stable identifier used in flags, request options,
	// cache keys, and metric labels.
	Name() string
	// Available reports whether this backend can run here (external
	// binaries present, etc.). Solving through an unavailable backend
	// returns ErrUnavailable.
	Available() bool
	// Solve runs the backend. The anytime contract matches the builtin
	// solver: on timeout the best incumbent comes back with
	// Optimal=false rather than an error, when one exists.
	Solve(ctx context.Context, p *ilp.Problem) (*ilp.Solution, error)
}

// ErrUnavailable reports a backend that cannot run in this environment
// (external solver binary not on PATH).
var ErrUnavailable = errors.New("backend: solver unavailable")

// ErrUnknown reports a solver name Select does not recognize.
var ErrUnknown = errors.New("backend: unknown solver name")

// Builtin runs the in-process branch-and-bound.
type Builtin struct {
	// Workers is how many goroutines search (0 = ilp.DefaultWorkers).
	Workers int
}

// Name implements Solver: asking for exactly one worker is what the
// name "builtin-seq" means.
func (b Builtin) Name() string {
	if b.Workers == 1 {
		return "builtin-seq"
	}
	return "builtin"
}

// Available implements Solver; the builtin always runs.
func (b Builtin) Available() bool { return true }

// Solve implements Solver.
func (b Builtin) Solve(ctx context.Context, p *ilp.Problem) (*ilp.Solution, error) {
	return ilp.SolveParallelContext(ctx, p, b.Workers)
}

// External shells out to an MPS-speaking MIP solver.
type External struct {
	// Binary is the executable looked up on PATH: "cbc" or "highs".
	Binary string
}

// Name implements Solver.
func (e External) Name() string { return e.Binary }

// Available implements Solver.
func (e External) Available() bool {
	_, err := exec.LookPath(e.Binary)
	return err == nil
}

// timeoutSeconds derives the subprocess time budget from the problem
// timeout and the context deadline, whichever binds first.
func timeoutSeconds(ctx context.Context, p *ilp.Problem) float64 {
	budget := time.Hour
	if p.Timeout > 0 && p.Timeout < budget {
		budget = p.Timeout
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < budget {
			budget = rem
		}
	}
	s := budget.Seconds()
	if s < 1 {
		s = 1 // sub-second budgets round up: the subprocess needs startup time
	}
	return s
}

// Solve implements Solver: write MPS to a scratch directory, run the
// solver with a time budget, parse the solution file, and have the
// model check the selection and restrict it to the root closure.
func (e External) Solve(ctx context.Context, p *ilp.Problem) (*ilp.Solution, error) {
	start := time.Now()
	path, err := exec.LookPath(e.Binary)
	if err != nil {
		return nil, fmt.Errorf("%w: %q not on PATH", ErrUnavailable, e.Binary)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "tensat-ilp-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	mpsPath := filepath.Join(dir, "model.mps")
	solPath := filepath.Join(dir, "model.sol")
	mf, err := os.Create(mpsPath)
	if err != nil {
		return nil, err
	}
	if err := lpfile.WriteMPS(mf, p); err != nil {
		mf.Close()
		return nil, err
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}

	secs := strconv.FormatFloat(timeoutSeconds(ctx, p), 'f', 0, 64)
	var args []string
	switch e.Binary {
	case "cbc":
		args = []string{mpsPath, "-seconds", secs, "solve", "-solution", solPath}
	case "highs":
		args = []string{"--time_limit", secs, "--solution_file", solPath, mpsPath}
	default:
		// Assume a cbc-compatible command line for unknown binaries.
		args = []string{mpsPath, "-seconds", secs, "solve", "-solution", solPath}
	}
	cmd := exec.CommandContext(ctx, path, args...)
	// Without a WaitDelay, a killed solver whose grandchildren inherit
	// the output pipe would block CombinedOutput past cancellation.
	cmd.WaitDelay = 5 * time.Second
	out, runErr := cmd.CombinedOutput()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	sf, err := os.Open(solPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("backend: %s failed: %v\n%s", e.Binary, runErr, truncate(out))
		}
		return nil, fmt.Errorf("backend: %s wrote no solution file: %v", e.Binary, err)
	}
	defer sf.Close()
	sel, err := lpfile.ParseSolution(sf)
	if err != nil {
		return nil, fmt.Errorf("backend: parsing %s solution: %w", e.Binary, err)
	}
	switch sel.Status {
	case "infeasible":
		return nil, ilp.ErrInfeasible
	case "optimal", "stopped":
	default:
		if len(sel.NodeOf) == 0 {
			return nil, fmt.Errorf("backend: %s returned status %q with no selection\n%s",
				e.Binary, sel.Status, truncate(out))
		}
	}
	cost, closure, err := p.Check(sel.NodeOf)
	if err != nil {
		return nil, fmt.Errorf("backend: %s solution rejected: %w", e.Binary, err)
	}
	return &ilp.Solution{
		NodeOf:     closure,
		Cost:       cost,
		Optimal:    sel.Status == "optimal",
		TimedOut:   sel.Status == "stopped",
		Time:       time.Since(start),
		Incumbents: 1,
		Workers:    1,
	}, nil
}

func truncate(out []byte) []byte {
	const max = 2048
	if len(out) > max {
		return out[len(out)-max:]
	}
	return out
}

// Names lists the selectable solver names, for flag help and request
// validation ("" selects the default builtin).
func Names() []string {
	return []string{"builtin", "builtin-seq", "cbc", "highs"}
}

// Valid reports whether name selects a known backend ("" included).
func Valid(name string) bool {
	if name == "" {
		return true
	}
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Select resolves a solver name to a backend. The empty name means the
// default: the builtin solver with ilp.DefaultWorkers goroutines.
func Select(name string) (Solver, error) {
	switch name {
	case "", "builtin":
		return Builtin{}, nil
	case "builtin-seq":
		return Builtin{Workers: 1}, nil
	case "cbc", "highs":
		return External{Binary: name}, nil
	default:
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknown, name, Names())
	}
}
