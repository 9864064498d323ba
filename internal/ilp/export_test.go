package ilp

import (
	"context"
	"time"
)

// NewBranchRun prepares and seeds p as a solve does and returns a
// function that searches the whole tree once more on one kept worker,
// returning the expansions it took: the branch-and-bound core with
// nothing else in the loop, for the benchmarks in package ilp_test.
func NewBranchRun(p *Problem) (run func() int64, err error) {
	master, err := prepare(context.Background(), p, time.Now())
	if err != nil {
		return nil, err
	}
	master.seed()
	sh := newShared(time.Now(), nil)
	if master.bestPick != nil {
		sh.offer(master.best, master.bestPick, -1, 0)
	}
	w := master.worker(sh)
	return func() int64 {
		w.stalled = false
		before := sh.explored.Load()
		w.runUnit(unit{}, 0)
		return sh.explored.Load() - before
	}, nil
}
