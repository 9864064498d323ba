package serve

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tensat"
	"tensat/internal/fingerprint"
)

// waitStatus polls until the job reaches the wanted terminal status.
func waitStatus(t *testing.T, j *Job, want JobStatus) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job did not finish (want %s)", want)
	}
	if st, _ := j.Status(); st != want {
		t.Fatalf("status = %s, want %s", st, want)
	}
}

func TestProgressLogReplayAndNotify(t *testing.T) {
	var l progressLog
	l.init()
	l.publish(tensat.Progress{Phase: tensat.PhaseQueued})
	l.publish(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 1})

	entries, next, notify := l.since(0)
	if len(entries) != 2 || next != 2 {
		t.Fatalf("replay returned %d entries (next %d), want 2 (next 2)", len(entries), next)
	}
	select {
	case <-notify:
		t.Fatal("notify fired without an append")
	default:
	}
	l.publish(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 2})
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("append did not signal the watcher")
	}
	entries, next, _ = l.since(next)
	if len(entries) != 1 || entries[0].Iteration != 2 || next != 3 {
		t.Fatalf("incremental read = %+v (next %d), want the iteration-2 entry", entries, next)
	}
	if got := l.latest(); got.Iteration != 2 {
		t.Fatalf("latest = %+v", got)
	}
}

// TestProgressLogRingKeepsDeliveringPastCap: a reader that keeps up
// receives every entry published after the ring wraps, and a reader
// replaying from 0 gets the newest cap-sized window in order.
func TestProgressLogRingKeepsDeliveringPastCap(t *testing.T) {
	var l progressLog
	l.init()
	for i := 0; i < progressLogCap; i++ {
		l.publish(tensat.Progress{Iteration: i})
	}
	_, next, _ := l.since(0)
	if next != progressLogCap {
		t.Fatalf("next = %d, want %d", next, progressLogCap)
	}
	// Publishes past the cap must still reach an up-to-date reader.
	for i := 0; i < 10; i++ {
		l.publish(tensat.Progress{Iteration: progressLogCap + i})
		entries, n, _ := l.since(next)
		if len(entries) != 1 || entries[0].Iteration != progressLogCap+i {
			t.Fatalf("publish %d past cap: read %+v", i, entries)
		}
		next = n
	}
	// A from-zero replay is clamped to the retained window, oldest
	// first, ending at the newest entry.
	entries, _, _ := l.since(0)
	if len(entries) != progressLogCap {
		t.Fatalf("replay length %d, want %d", len(entries), progressLogCap)
	}
	if entries[0].Iteration != 10 || entries[len(entries)-1].Iteration != progressLogCap+9 {
		t.Fatalf("replay window [%d, %d], want [10, %d]",
			entries[0].Iteration, entries[len(entries)-1].Iteration, progressLogCap+9)
	}
	if got := l.latest(); got.Iteration != progressLogCap+9 {
		t.Fatalf("latest = %+v", got)
	}
}

// TestJobLifecycleWithProgress drives a job against a controllable
// optimization and checks the full observable lifecycle: queued
// snapshot, live progress pumped from the run, done status with the
// result, and counters.
func TestJobLifecycleWithProgress(t *testing.T) {
	s := New(Config{Workers: 1})
	// start holds the run's first snapshot back until the test has read
	// the queued one; without it a fast run can publish iteration 1
	// before the first Status call.
	start := make(chan struct{})
	step := make(chan struct{})
	release := make(chan struct{})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-start:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 1, ENodes: 10})
		select {
		case <-step:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 2, ENodes: 20})
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return res, nil
	}

	job, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, p := job.Status(); st != JobRunning || p.Phase != tensat.PhaseQueued {
		t.Fatalf("initial status = %s/%s, want running/queued", st, p.Phase)
	}
	close(start)

	// The run's first snapshot must surface through the job's log.
	waitFor(t, func() bool { _, p := job.Status(); return p.Iteration == 1 })
	close(step)
	waitFor(t, func() bool { _, p := job.Status(); return p.Iteration == 2 })
	close(release)
	waitStatus(t, job, JobDone)

	resp, jerr := job.Outcome()
	if jerr != nil {
		t.Fatal(jerr)
	}
	fp, err := fingerprint.GraphHex(testGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeReply(&Response{Result: res, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Reply, want) || resp.Trace != res.Trace {
		t.Fatalf("job returned a different result:\n%s\nwant\n%s", resp.Reply, want)
	}
	if resp.Cached || resp.Deduped {
		t.Fatalf("cold job reports cached=%v deduped=%v", resp.Cached, resp.Deduped)
	}
	// Replay: queued, the two explore snapshots, then a terminal done.
	entries, _, _ := job.ProgressSince(0)
	if len(entries) < 4 {
		t.Fatalf("log has %d entries, want >= 4: %+v", len(entries), entries)
	}
	if entries[0].Phase != tensat.PhaseQueued {
		t.Fatalf("first entry phase = %s, want queued", entries[0].Phase)
	}
	if last := entries[len(entries)-1]; last.Phase != tensat.PhaseDone {
		t.Fatalf("last entry phase = %s, want done", last.Phase)
	}
	c := s.JobCounters()
	if c.Submitted != 1 || c.Done != 1 || c.Running != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestJobCancelMidRunFreesSlotAndNeverCaches is the cancel-race
// contract: canceling a job mid-exploration marks it canceled, frees
// its worker slot for the next job, and never caches the canceled
// partial result.
func TestJobCancelMidRunFreesSlotAndNeverCaches(t *testing.T) {
	s := New(Config{Workers: 1}) // one slot: job B can only run if A freed it
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		n := calls.Add(1)
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: int(n)})
		if n == 1 {
			// First run: a partial result interrupted by cancellation.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return stubResult(t), nil
	}

	jobA, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel strictly mid-exploration (after the run started).
	waitFor(t, func() bool { _, p := jobA.Status(); return p.Phase == tensat.PhaseExplore })
	jobA.Cancel()
	waitStatus(t, jobA, JobCanceled)
	if _, jerr := jobA.Outcome(); !errors.Is(jerr, context.Canceled) {
		t.Fatalf("outcome err = %v, want context.Canceled", jerr)
	}

	// Same graph again: must re-run (nothing cached), and must get the
	// worker slot the canceled job released.
	jobB, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jobB, JobDone)
	resp, jerr := jobB.Outcome()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if resp.Cached {
		t.Fatal("canceled partial result was served from the cache")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("optimize ran %d times, want 2 (canceled run must not satisfy job B)", n)
	}
	c := s.JobCounters()
	if c.Canceled != 1 || c.Done != 1 {
		t.Fatalf("counters = %+v, want 1 canceled / 1 done", c)
	}
}

// TestJobCancelDoesNotStrandedSiblings: canceling one of two deduped
// jobs leaves the shared run alive for the survivor.
func TestJobCancelKeepsDedupedSiblingAlive(t *testing.T) {
	s := New(Config{Workers: 2})
	release := make(chan struct{})
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 1})
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	jobA, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, p := jobA.Status(); return p.Phase == tensat.PhaseExplore })
	jobB, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Deduped == 1 })

	jobA.Cancel()
	waitStatus(t, jobA, JobCanceled)
	close(release)
	waitStatus(t, jobB, JobDone)
	resp, jerr := jobB.Outcome()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !resp.Deduped {
		t.Fatal("job B should have joined job A's run")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("optimize ran %d times, want 1 (shared run survives A's cancel)", n)
	}
	// B's log must carry the run's progress even though A started it.
	entries, _, _ := jobB.ProgressSince(0)
	sawExplore := false
	for _, p := range entries {
		if p.Phase == tensat.PhaseExplore {
			sawExplore = true
		}
	}
	if !sawExplore {
		t.Fatalf("deduped job saw no explore progress: %+v", entries)
	}
}

// TestJobCacheHit: a job for an already-cached answer finishes
// immediately with Cached=true and a terminal snapshot.
func TestJobCacheHit(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	if _, err := s.Optimize(context.Background(), testGraph(t, 1), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	job, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, job, JobDone)
	resp, jerr := job.Outcome()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !resp.Cached {
		t.Fatal("job missed the warm cache")
	}
	if _, p := job.Status(); p.Phase != tensat.PhaseDone {
		t.Fatalf("terminal phase = %s, want done", p.Phase)
	}
}

// TestJobStoreCapacityAndTTL: the store evicts expired and finished
// jobs under pressure but refuses new jobs when every slot is running.
func TestJobStoreCapacityAndTTL(t *testing.T) {
	s := New(Config{Workers: 2, MaxJobs: 2, JobTTL: 50 * time.Millisecond})
	release := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	a, err := s.SubmitJob(testGraph(t, 1), RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(testGraph(t, 2), RequestOptions{}, 0); err != nil {
		t.Fatal(err)
	}
	// Store full of running jobs: the third submit must be refused.
	if _, err := s.SubmitJob(testGraph(t, 3), RequestOptions{}, 0); !errors.Is(err, ErrJobStoreFull) {
		t.Fatalf("err = %v, want ErrJobStoreFull", err)
	}
	close(release)
	waitStatus(t, a, JobDone)

	// With a finished job present, a new submit evicts it.
	c, err := s.SubmitJob(testGraph(t, 3), RequestOptions{}, 0)
	if err != nil {
		t.Fatalf("submit after completion: %v", err)
	}
	waitStatus(t, c, JobDone)

	// TTL: finished jobs disappear from lookup after expiry.
	id := c.ID()
	waitFor(t, func() bool { _, ok := s.Job(id); return !ok })
}
