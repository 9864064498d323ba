package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"tensat"
	"tensat/internal/tenant"
)

// ErrJobStoreFull is returned by SubmitJob when the store holds
// MaxJobs unfinished jobs; transports classify it as backpressure
// (HTTP 429), not a server fault.
var ErrJobStoreFull = errors.New("serve: job store full")

// progressLogCap bounds one job's progress history: the log is a ring
// holding the newest progressLogCap snapshots. Readers that keep up
// see every entry; a reader that falls more than the cap behind (or a
// pathological job publishing tens of thousands of incumbents) skips
// the oldest overwritten entries but always continues receiving the
// live tail.
const progressLogCap = 4096

// progressLog is a bounded broadcast log of progress snapshots:
// writers publish, readers replay from a monotone index and get a
// channel that is closed on the next append (so watchers never miss or
// double-count a delivered entry).
type progressLog struct {
	mu     sync.Mutex
	buf    []tensat.Progress // ring once len == progressLogCap
	total  int               // entries ever published
	notify chan struct{}
}

func (l *progressLog) init() { l.notify = make(chan struct{}) }

func (l *progressLog) publish(p tensat.Progress) {
	l.mu.Lock()
	l.appendLocked(p)
	l.mu.Unlock()
}

// appendLocked adds p and wakes the watchers; l.mu must be held.
func (l *progressLog) appendLocked(p tensat.Progress) {
	if len(l.buf) < progressLogCap {
		l.buf = append(l.buf, p)
	} else {
		l.buf[l.total%progressLogCap] = p
	}
	l.total++
	close(l.notify)
	l.notify = make(chan struct{})
}

// since returns the entries from monotone index from on (oldest first,
// clamped to what the ring still holds), the index to resume from, and
// the channel that will signal the next append.
func (l *progressLog) since(from int) ([]tensat.Progress, int, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := from
	if lo := l.total - len(l.buf); start < lo {
		start = lo
	}
	var out []tensat.Progress
	if start < l.total {
		out = make([]tensat.Progress, 0, l.total-start)
		for i := start; i < l.total; i++ {
			out = append(out, l.buf[i%progressLogCap])
		}
	}
	return out, l.total, l.notify
}

// latest returns the newest entry (zero Progress when empty).
func (l *progressLog) latest() tensat.Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latestLocked()
}

func (l *progressLog) latestLocked() tensat.Progress {
	if l.total > 0 {
		return l.buf[(l.total-1)%progressLogCap]
	}
	return tensat.Progress{}
}

// JobStatus is the service-level lifecycle state of an asynchronous
// job. It is coarser than tensat.Phase: the fine-grained pipeline
// position (queued/explore/extract) lives in the progress snapshots.
type JobStatus string

const (
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobCanceled JobStatus = "canceled"
	JobFailed   JobStatus = "failed"
)

// Job is one asynchronous optimization tracked by the service: submit
// returns immediately, progress streams through a per-job log (shared
// with any deduplicated siblings), and the answer stays queryable for
// the store's TTL after completion. A finished job keeps its encoded
// /result body, never the decoded result it was encoded from.
type Job struct {
	id      string
	created time.Time
	prof    profile
	cancel  context.CancelFunc
	done    chan struct{}
	// log's mutex also guards the fields below the blank line, so a
	// status, its progress snapshot and its error are read together.
	log progressLog
	// adm is the admission decision: the quota slot the job holds from
	// submission until it finishes.
	adm admission

	reply                              []byte
	trace                              *tensat.TraceSpan
	err                                error
	finished, cached, deduped, retired bool // retired: under the store's lock
}

// JobOutcome is what a finished job keeps: its /result body (read-only;
// memory hits share one), how it was answered, the run's span tree.
type JobOutcome struct {
	Reply           []byte
	Cached, Deduped bool
	Trace           *tensat.TraceSpan
}

// ID is the store key, exposed over HTTP as /v1/jobs/{id}.
func (j *Job) ID() string { return j.id }

// Created reports submission time (the job-listing "age" anchor).
func (j *Job) Created() time.Time { return j.created }

// Profile reports the resolved profile names the job runs under.
func (j *Job) Profile() (ruleSet, costModel string) {
	return j.prof.RuleSet, j.prof.CostModel
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the lifecycle state and the latest progress snapshot.
// While the job runs, Elapsed is recomputed from submission time so
// pollers see time advance between pipeline events.
func (j *Job) Status() (JobStatus, tensat.Progress) {
	st, p, _ := j.snapshot()
	return st, p
}

// snapshot reads the status, the latest progress and the error as one.
func (j *Job) snapshot() (JobStatus, tensat.Progress, error) {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	p := j.log.latestLocked()
	if !j.finished {
		p.Elapsed = time.Since(j.created)
		return JobRunning, p, nil
	}
	return terminalStatus(j.err), p, j.err
}

// Outcome returns what the job keeps and its error, zero until Done.
func (j *Job) Outcome() (JobOutcome, error) {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	return JobOutcome{Reply: j.reply, Cached: j.cached, Deduped: j.deduped, Trace: j.trace}, j.err
}

// Cancel aborts a running job; the exploration stops at its next
// check point, the worker slot is freed (unless other requests share
// the run), and the partial result is never cached. Canceling a
// finished job is a no-op.
func (j *Job) Cancel() {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	j.cancel()
}

// ProgressSince replays the job's progress log from a monotone index,
// returning the entries, the index to resume from, and the channel
// signalling the next append — the primitive the SSE handler streams
// from.
func (j *Job) ProgressSince(from int) ([]tensat.Progress, int, <-chan struct{}) {
	return j.log.since(from)
}

// terminalStatus classifies a job outcome.
func terminalStatus(err error) JobStatus {
	switch {
	case err == nil:
		return JobDone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return JobCanceled
	default:
		return JobFailed
	}
}

// finish publishes the terminal progress entry and the outcome together,
// then closes Done. resp is read, not kept; reply is its /result body.
func (j *Job) finish(resp *Response, reply []byte, err error) {
	want := tensat.Phase(terminalStatus(err)) // spelled alike
	// Guarantee a terminal entry in the log: runs pumped from a flight
	// already carry one for done/failed, but canceled followers and
	// cache hits do not.
	j.log.mu.Lock()
	if p := j.log.latestLocked(); p.Phase != want {
		p.Phase = want
		if resp != nil && resp.Result != nil {
			p.Iteration = resp.Result.Iterations
			p.ENodes, p.EClasses = resp.Result.ENodes, resp.Result.EClasses
			p.BestCost = resp.Result.OptCost
		}
		p.Elapsed = time.Since(j.created)
		j.log.appendLocked(p)
	}
	// No entry follows the terminal one: Done is the log's last signal.
	// Dropping cancel frees the job's context for the TTL.
	j.cancel()
	j.log.notify, j.cancel = j.done, func() {}
	j.finished, j.reply, j.err = true, reply, err
	if err == nil {
		j.trace, j.cached, j.deduped = resp.Result.Trace, resp.Cached, resp.Deduped
	}
	j.log.mu.Unlock()
	close(j.done)
}

// JobCounters snapshots the job-lifecycle instruments
// (tensat_jobs_*).
type JobCounters struct {
	Submitted uint64
	Running   int
	Done      uint64
	Canceled  uint64
	Failed    uint64
}

// jobStore indexes asynchronous jobs by id. It is capacity-capped —
// submissions beyond MaxJobs evict the oldest finished job, or fail
// with ErrJobStoreFull when every held job is still running — and
// TTL-bounded: finished jobs expire ttl after completion. With one TTL
// completion order is expiry order, so finished jobs wait in a FIFO
// whose head is the next to expire and to evict: O(1) per job, however
// many the store holds. The store never takes a job's lock.
type jobStore struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	finished []expiry // oldest completion first
	ttl      time.Duration
	cap      int
	clock    func() time.Duration // time since creation; tests replace it
}

type expiry struct {
	job *Job
	at  time.Duration // completion time on the store's clock
}

func newJobStore(capacity int, ttl time.Duration) *jobStore {
	epoch := time.Now()
	return &jobStore{jobs: make(map[string]*Job), ttl: ttl, cap: capacity,
		clock: func() time.Duration { return time.Since(epoch) }}
}

// add registers a new job, purging expired entries and evicting the
// oldest finished job if the store is at capacity.
func (st *jobStore) add(j *Job) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
	if len(st.jobs) >= st.cap {
		if len(st.finished) == 0 {
			return ErrJobStoreFull
		}
		st.popLocked()
	}
	st.jobs[j.id] = j
	return nil
}

// retire queues a job for expiry before it publishes its terminal state,
// once even if finishJob re-runs after a panic between the two steps.
func (st *jobStore) retire(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !j.retired {
		j.retired = true
		st.finished = append(st.finished, expiry{job: j, at: st.clock()})
	}
}

// popLocked drops the oldest finished job; append's regrowth reclaims its slot.
func (st *jobStore) popLocked() {
	delete(st.jobs, st.finished[0].job.id)
	st.finished[0] = expiry{}
	st.finished = st.finished[1:]
}

func (st *jobStore) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
	j, ok := st.jobs[id]
	return j, ok
}

// list snapshots the live (unexpired) jobs, oldest submission first,
// id as the tiebreak so the order is deterministic.
func (st *jobStore) list() []*Job {
	st.mu.Lock()
	st.purgeLocked()
	out := make([]*Job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].created.Equal(out[k].created) {
			return out[i].created.Before(out[k].created)
		}
		return out[i].id < out[k].id
	})
	return out
}

// purgeLocked pops the expired jobs off the head of the queue.
func (st *jobStore) purgeLocked() {
	now := st.clock()
	for len(st.finished) > 0 && now-st.finished[0].at > st.ttl {
		st.popLocked()
	}
}

// purge drops expired jobs now. The store has no background sweeper;
// expiry is enforced on every touch point instead, and the stats read
// is one of them.
func (st *jobStore) purge() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
}

// newJobID returns a 16-hex-char random job id.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// SubmitJob validates the request synchronously (bad options and
// malformed graphs fail here, before a job exists), registers a job,
// and starts it in the background. The job is bounded by timeout when
// positive, and by Job.Cancel; it is NOT tied to the submitting
// caller's lifetime — that is the point of the asynchronous surface.
func (s *Service) SubmitJob(g *tensat.Graph, ro RequestOptions, timeout time.Duration) (*Job, error) {
	return s.SubmitJobAs(g, ro, timeout, nil)
}

// SubmitJobAs is SubmitJob under a tenant's admission control: the
// decision (full quality, degraded, or *RateLimitError) is made at
// submission, the quota slot is held for the job's lifetime, and the
// tenant's priority orders the job in the worker queue. tn == nil
// bypasses admission entirely.
func (s *Service) SubmitJobAs(g *tensat.Graph, ro RequestOptions, timeout time.Duration, tn *tenant.Tenant) (*Job, error) {
	q, err := s.prepare(g, ro)
	if err != nil {
		return nil, err
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	s.metrics.requests.With(q.prof.RuleSet, q.prof.CostModel).Inc()
	adm, err := s.admit(tn)
	if err != nil {
		return nil, err
	}
	// Drain gate: track registers the job with the drain WaitGroup (so
	// Drain waits for it) and atomically refuses once draining has
	// begun — a job can never start after Drain has decided what it is
	// waiting for.
	if !s.drain.track() {
		s.release(adm)
		return nil, ErrDraining
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	job := &Job{
		id:      id,
		created: time.Now(),
		prof:    q.prof,
		cancel:  cancel,
		done:    make(chan struct{}),
		adm:     adm,
	}
	job.log.init()
	job.log.publish(tensat.Progress{Phase: tensat.PhaseQueued})
	if err := s.jobs.add(job); err != nil {
		cancel()
		s.drain.done()
		s.release(adm)
		return nil, err
	}
	s.metrics.jobsSubmitted.Inc()
	s.metrics.jobsRunning.Inc()
	attrs := []any{
		"job", job.id,
		"profile", q.prof.label(),
		"fingerprint", q.fp,
	}
	if adm.tenant != "" {
		attrs = append(attrs, "tenant", adm.tenant, "degraded", adm.degraded)
	}
	s.log.Info("job submitted", attrs...)
	go func() {
		defer s.drain.done()
		s.runJob(ctx, job, q, g)
	}()
	return job, nil
}

// Job looks up a tracked job by id.
func (s *Service) Job(id string) (*Job, bool) { return s.jobs.get(id) }

// Jobs lists every tracked job — running and finished-but-unexpired —
// oldest first. It is the observability hook behind GET /v1/jobs: the
// TTL and eviction behavior of the store shows up as jobs appearing
// and disappearing from this listing.
func (s *Service) Jobs() []*Job { return s.jobs.list() }

// finishJob encodes the job's /result body (failing the job if it does
// not encode), records the terminal state in the job-lifecycle
// instruments, releases the tenant quota slot, queues the job for
// expiry, and only then publishes the state on the job — whoever sees
// the job finished reads counters that include it, can resubmit into
// the freed slot, and can count on the job being evictable.
func (s *Service) finishJob(job *Job, resp *Response, err error) {
	var reply []byte
	if err == nil {
		if reply = resp.reply; reply == nil {
			reply, err = encodeReply(resp)
		}
	}
	status := terminalStatus(err)
	attrs := []any{
		"job", job.id,
		"status", string(status),
		"profile", job.prof.label(),
		"duration", time.Since(job.created),
	}
	s.metrics.jobsRunning.Dec()
	switch status {
	case JobCanceled:
		s.metrics.jobsCanceled.Inc()
	case JobFailed:
		s.metrics.jobsFailed.Inc()
		attrs = append(attrs, "error", err.Error())
	default:
		s.metrics.jobsDone.Inc()
		attrs = append(attrs, "cached", resp.Cached, "deduped", resp.Deduped)
	}
	s.release(job.adm)
	s.jobs.retire(job)
	job.finish(resp, reply, err)
	s.log.Info("job finished", attrs...)
}

// runJob drives one asynchronous job through the same request tail as
// the synchronous Optimize, pumping the shared flight's progress stream
// into the job's own log so every deduplicated sibling (and the SSE
// watchers of each) sees identical live snapshots.
func (s *Service) runJob(ctx context.Context, job *Job, q request, g *tensat.Graph) {
	// Panic isolation for the job runner itself (the worker-pool run has
	// its own recover): the job must always reach a terminal state —
	// watchers block on job.Done() — and the daemon must survive.
	defer func() {
		if r := recover(); r != nil {
			perr := &tensat.PanicError{Value: r, Stack: debug.Stack()}
			s.metrics.panics.With("job").Inc()
			s.log.Error("panic in job runner", "job", job.id,
				"panic", fmt.Sprint(r), "stack", string(perr.Stack))
			select {
			case <-job.done:
				// Already terminal; nothing left to publish.
			default:
				s.finishJob(job, nil, perr)
			}
		}
	}()
	resp, err := s.answer(ctx, g, q, job.adm, job.log.publish)
	s.finishJob(job, resp, err)
}
