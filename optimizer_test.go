package tensat_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tensat"
	"tensat/internal/models"
)

// figure2 builds the two-matmuls-shared-input motivating example.
func figure2(t testing.TB) *tensat.Graph {
	t.Helper()
	b := tensat.NewBuilder()
	x := b.Input("x", 64, 256)
	w1 := b.Weight("w1", 256, 256)
	w2 := b.Weight("w2", 256, 256)
	g, err := b.Finish(b.Matmul(tensat.ActNone, x, w1), b.Matmul(tensat.ActNone, x, w2))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// progressRecorder collects every snapshot a job's sink receives.
type progressRecorder struct {
	mu   sync.Mutex
	snap []tensat.Progress
}

func (r *progressRecorder) sink(p tensat.Progress) {
	r.mu.Lock()
	r.snap = append(r.snap, p)
	r.mu.Unlock()
}

func (r *progressRecorder) all() []tensat.Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]tensat.Progress(nil), r.snap...)
}

// checkPhaseOrder checks that snaps run through explore snapshots,
// then extract (when reached), and end with exactly one terminal
// snapshot of phase want that carries the iteration and e-graph sizes
// of the snapshot before it.
func checkPhaseOrder(t *testing.T, snaps []tensat.Progress, want tensat.Phase) {
	t.Helper()
	if len(snaps) < 2 {
		t.Fatalf("got %d progress snapshots, want >= 2: %+v", len(snaps), snaps)
	}
	rank := map[tensat.Phase]int{tensat.PhaseExplore: 1, tensat.PhaseExtract: 2}
	for i, p := range snaps[:len(snaps)-1] {
		r, ok := rank[p.Phase]
		if !ok {
			t.Fatalf("snapshot %d: phase %q before the terminal one", i, p.Phase)
		}
		if i > 0 && r < rank[snaps[i-1].Phase] {
			t.Fatalf("snapshot %d: %s after %s", i, p.Phase, snaps[i-1].Phase)
		}
	}
	last, prev := snaps[len(snaps)-1], snaps[len(snaps)-2]
	if last.Phase != want {
		t.Fatalf("final snapshot phase = %q, want %q", last.Phase, want)
	}
	if last.Iteration != prev.Iteration || last.ENodes != prev.ENodes || last.EClasses != prev.EClasses {
		t.Fatalf("final snapshot %+v does not carry the last sizes %+v", last, prev)
	}
}

// TestOptimizerSubmitLiveProgress drives a job end to end and checks
// the sink's contract: per-iteration explore snapshots, an extract
// transition, and a terminal done snapshot carrying the final
// statistics — with the result identical to the synchronous shim's.
func TestOptimizerSubmitLiveProgress(t *testing.T) {
	opts := tensat.DefaultOptions()
	opts.NodeLimit = 2000
	opts.IterLimit = 5
	rec := &progressRecorder{}
	opts.Progress = rec.sink

	o := tensat.NewOptimizer()
	job, err := o.Submit(context.Background(), figure2(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("Result returned but Done is not closed")
	}

	snaps := rec.all()
	checkPhaseOrder(t, snaps, tensat.PhaseDone)
	if snaps[0].Phase != tensat.PhaseExplore || snaps[len(snaps)-2].Phase != tensat.PhaseExtract {
		t.Fatalf("run did not go explore -> extract: %+v", snaps)
	}
	last := snaps[len(snaps)-1]
	if last.Iteration != res.Iterations || last.ENodes != res.ENodes ||
		last.EClasses != res.EClasses || last.BestCost != res.OptCost {
		t.Fatalf("final snapshot %+v does not match result iters=%d enodes=%d eclasses=%d cost=%v",
			last, res.Iterations, res.ENodes, res.EClasses, res.OptCost)
	}

	// The job's answer must equal the synchronous shim's, byte for
	// byte on the wire.
	syncOpts := opts
	syncOpts.Progress = nil
	sres, err := tensat.Optimize(figure2(t), syncOpts)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := res.Graph.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sres.Graph.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if string(jt) != string(st) {
		t.Fatalf("job graph differs from synchronous graph:\n%s\nvs\n%s", jt, st)
	}
	if res.OptCost != sres.OptCost {
		t.Fatalf("job cost %v != sync cost %v", res.OptCost, sres.OptCost)
	}
}

// TestOptimizerReusedAcrossJobs submits two different graphs through
// one Optimizer (the rules compile once) and a third with per-job
// custom rules, checking isolation between jobs.
func TestOptimizerReusedAcrossJobs(t *testing.T) {
	o := tensat.NewOptimizer()
	opts := tensat.DefaultOptions()
	opts.NodeLimit = 2000
	opts.IterLimit = 5

	j1, err := o.Submit(context.Background(), figure2(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	b := tensat.NewBuilder()
	g2, err := b.Finish(b.Relu(b.Input("x", 8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := o.Submit(context.Background(), g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r1.OptCost >= r1.OrigCost {
		t.Fatalf("first job found no improvement: %v -> %v", r1.OrigCost, r1.OptCost)
	}
	if _, err := j2.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizerJobCancel cancels a job's context mid-exploration and
// checks the terminal state: context.Canceled from Result, Done
// closed, and a last sink entry of phase canceled that carries the
// last iteration and e-graph sizes the run reported.
func TestOptimizerJobCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &progressRecorder{}
	exploring := make(chan struct{})
	var once sync.Once
	opts := tensat.DefaultOptions()
	opts.Extractor = tensat.ExtractGreedy
	opts.Progress = func(p tensat.Progress) {
		rec.sink(p)
		if p.Phase == tensat.PhaseExplore {
			once.Do(func() { close(exploring) })
		}
	}

	job, err := tensat.NewOptimizer().Submit(ctx, models.NasRNN(models.ScaleTest), opts)
	if err != nil {
		t.Fatal(err)
	}
	<-exploring
	cancel()

	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("canceled job did not finish")
	}
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkPhaseOrder(t, rec.all(), tensat.PhaseCanceled)
}

// TestOptimizerSubmitNilGraph mirrors Optimize's nil handling.
func TestOptimizerSubmitNilGraph(t *testing.T) {
	if _, err := tensat.NewOptimizer().Submit(context.Background(), nil, tensat.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestOptimizerSubmitDeadContext rejects submission on a dead context.
func TestOptimizerSubmitDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tensat.NewOptimizer().Submit(ctx, figure2(t), tensat.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
