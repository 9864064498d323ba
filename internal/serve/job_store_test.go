package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/tensor"
)

// storeJob builds a running job for the store's unit tests.
func storeJob(id string) *Job {
	j := &Job{id: id, created: time.Now(), done: make(chan struct{}), cancel: func() {}}
	j.log.init()
	return j
}

// manualClock makes a store's clock settable.
func manualClock(st *jobStore) *time.Duration {
	now := new(time.Duration)
	st.clock = func() time.Duration { return *now }
	return now
}

func held(st *jobStore, ids ...string) error {
	for _, id := range ids {
		if _, ok := st.get(id); !ok {
			return fmt.Errorf("job %s is gone", id)
		}
	}
	return nil
}

func TestJobStoreExpiresOldestFinishedFirst(t *testing.T) {
	st := newJobStore(10, time.Minute)
	now := manualClock(st)
	jobs := map[string]*Job{}
	for _, id := range []string{"running", "a", "b", "c"} {
		jobs[id] = storeJob(id)
		if err := st.add(jobs[id]); err != nil {
			t.Fatal(err)
		}
	}
	// Completion order, not submission order, is expiry order.
	for i, id := range []string{"b", "a", "c"} {
		*now = time.Duration(i) * 10 * time.Second
		st.retire(jobs[id])
	}
	*now = 65 * time.Second // b finished 65 s ago, a 55 s ago
	if _, ok := st.get("b"); ok {
		t.Fatal("b outlived its TTL")
	}
	if err := held(st, "running", "a", "c"); err != nil {
		t.Fatal(err)
	}
	*now = 75 * time.Second
	if _, ok := st.get("a"); ok {
		t.Fatal("a outlived its TTL")
	}
	if err := held(st, "running", "c"); err != nil {
		t.Fatal(err)
	}
	// A running job never expires.
	*now = time.Hour
	if err := held(st, "running"); err != nil {
		t.Fatal(err)
	}
	if got := len(st.list()); got != 1 {
		t.Fatalf("store holds %d jobs, want only the running one", got)
	}
}

func TestJobStoreEvictsOldestFinishedFirst(t *testing.T) {
	st := newJobStore(3, time.Hour)
	jobs := map[string]*Job{}
	for _, id := range []string{"running", "a", "b"} {
		jobs[id] = storeJob(id)
		if err := st.add(jobs[id]); err != nil {
			t.Fatal(err)
		}
	}
	st.retire(jobs["b"])
	st.retire(jobs["a"])
	st.retire(jobs["a"]) // a repeated retire must not queue a twice
	if len(st.finished) != 2 {
		t.Fatalf("queue holds %d jobs, want 2", len(st.finished))
	}
	if err := st.add(storeJob("c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.get("b"); ok {
		t.Fatal("eviction spared b, the oldest finished job")
	}
	if err := held(st, "running", "a", "c"); err != nil {
		t.Fatal(err)
	}
	if err := st.add(storeJob("d")); err != nil {
		t.Fatal(err)
	}
	if err := held(st, "running", "c", "d"); err != nil {
		t.Fatal(err)
	}
	// Every held job is running: nothing may be evicted.
	if err := st.add(storeJob("e")); !errors.Is(err, ErrJobStoreFull) {
		t.Fatalf("err = %v, want ErrJobStoreFull", err)
	}
	if err := held(st, "running", "c", "d"); err != nil {
		t.Fatal(err)
	}
}

// TestJobStoreDoneJobIsEvictable: a job is queued before it publishes
// JobDone, so a store at capacity always has room for the next job once
// the caller has seen the previous one finish.
func TestJobStoreDoneJobIsEvictable(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	g := testGraph(t, 1)
	for i := 0; i < 5000; i++ {
		job, err := s.SubmitJobAs(g, RequestOptions{}, 0, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		// Spin rather than wait on Done, to submit the next job the
		// moment this one reads as done.
		for st, _ := job.Status(); st == JobRunning; st, _ = job.Status() {
		}
	}
}

// TestJobSnapshotConsistent polls hit jobs while they finish: a reader
// never sees a running job with a terminal phase or an error.
func TestJobSnapshotConsistent(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	g := testGraph(t, 1)
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		job, err := s.SubmitJobAs(g, RequestOptions{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			st, p := job.Status()
			if st == JobRunning && p.Phase == tensat.PhaseDone {
				t.Fatalf("job %d: status running beside phase done", i)
			}
			if r := toJobReply(job); r.Status == string(JobRunning) && (r.Progress.Phase == string(tensat.PhaseDone) || r.Error != "") {
				t.Fatalf("job %d: reply %+v says running beside a terminal phase or an error", i, r)
			}
			if st != JobRunning {
				break
			}
		}
	}
}

// TestTerminalStatusSpellsItsPhase pins what Job.finish relies on: each
// terminal status is spelled like the progress phase that ends its log.
func TestTerminalStatusSpellsItsPhase(t *testing.T) {
	for status, phase := range map[JobStatus]tensat.Phase{
		JobDone: tensat.PhaseDone, JobCanceled: tensat.PhaseCanceled, JobFailed: tensat.PhaseFailed,
	} {
		if tensat.Phase(status) != phase {
			t.Errorf("status %q ends its log with phase %q", status, phase)
		}
	}
}

// heapAfterGC reads the live heap.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobFootprint bounds the heap a finished hit job retains
// for its TTL, which a job holding its decoded result would exceed.
func TestFinishedJobFootprint(t *testing.T) {
	const n = 10000
	for _, tc := range []struct {
		name  string
		store bool
		limit float64
	}{
		{"memory", false, 862},
		// CacheSize 1 and two graphs taking turns: every job misses
		// memory and decodes its answer from the store.
		{"disk", true, 1200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1, MaxJobs: n}
			graphs := []*tensat.Graph{testGraph(t, 1)}
			if tc.store {
				st, err := cachestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				cfg.Store, cfg.CacheSize = st, 1
				graphs = append(graphs, testGraph(t, 2))
			}
			s := New(cfg)
			s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
				return stubResult(t), nil
			}
			for _, g := range graphs {
				if _, err := submitAndWait(context.Background(), s, g, RequestOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			before := heapAfterGC()
			for i := 0; i < n; i++ {
				job, err := s.SubmitJobAs(graphs[i%len(graphs)], RequestOptions{}, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				<-job.Done()
			}
			perJob := float64(heapAfterGC()-before) / n
			st := s.Stats()
			hits := st.Hits
			if tc.store {
				hits = st.StoreHits
			}
			if hits != n {
				t.Fatalf("%d %s hits, want %d", hits, tc.name, n)
			}
			if got := len(s.Jobs()); got != n {
				t.Fatalf("store holds %d jobs, want %d", got, n)
			}
			t.Logf("%.0f B retained per finished %s-hit job", perJob, tc.name)
			if perJob > tc.limit {
				t.Fatalf("a finished %s-hit job retains %.0f B, want <= %.0f", tc.name, perJob, tc.limit)
			}
		})
	}
}

// TestResultBodiesMatchFreshReply: the bytes a job keeps decode to what
// the reply of its result spells, for every kind of hit, and memory hits
// in the entry's own names share one body.
func TestResultBodiesMatchFreshReply(t *testing.T) {
	dir := t.TempDir()
	st, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The stub answers with the request graph itself, so a renamed
	// request has a result to rename.
	s := New(Config{Workers: 1, Store: st, CacheSize: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return &tensat.Result{Graph: g, OrigCost: 3, OptCost: 2, SpeedupPercent: 50, ENodes: 7, EClasses: 4, Iterations: 2}, nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	parse := func(t *testing.T, text string) *tensat.Graph {
		t.Helper()
		g, err := tensor.UnmarshalGraph([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	own := parse(t, `(output (relu (matmul 0 (input "x@4 8") (weight "w@8 8"))))`)
	renamed := parse(t, `(output (relu (matmul 0 (input "act@4 8") (weight "k@8 8"))))`)
	other := parse(t, `(output (tanh (input "x@4 8")))`)
	for _, g := range []*tensat.Graph{own, other} {
		if _, err := submitAndWait(context.Background(), s, g, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// result submits g as a job and returns the job and its /result body.
	result := func(t *testing.T, g *tensat.Graph) (*Job, []byte) {
		t.Helper()
		job, err := s.SubmitJobAs(g, RequestOptions{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, job, JobDone)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %v: %s", resp.StatusCode, err, body)
		}
		return job, body
	}
	// check decodes body and compares it, field for field, with a fresh
	// reply spelled from the result the memory tier holds for the same
	// request after the job, labeled with the tier the job was answered
	// from.
	check := func(t *testing.T, g *tensat.Graph, body []byte, tier string) {
		t.Helper()
		var got OptimizeReply
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v: %s", tier, err, body)
		}
		q, err := s.prepare(g, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		entry, ok := s.cache.get(q.key)
		if !ok {
			t.Fatalf("%s: the answered request is not in the memory tier", tier)
		}
		res, err := entry.inVocabulary(q.names)
		if err != nil {
			t.Fatal(err)
		}
		want, err := toOptimizeReply(&Response{Result: res, Fingerprint: q.fp, Cached: true, Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s-hit body\n%+v\nwant\n%+v", tier, got, want)
		}
	}

	// own is in memory (other was optimized last, but the LRU holds one
	// entry: make own the warm one again).
	if _, err := submitAndWait(context.Background(), s, own, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	j1, b1 := result(t, own)
	check(t, own, b1, TierMemory)
	j2, b2 := result(t, own)
	if string(b1) != string(b2) {
		t.Fatalf("two memory hits answered differently:\n%s\n%s", b1, b2)
	}
	o1, _ := j1.Outcome()
	o2, _ := j2.Outcome()
	if &o1.Reply[0] != &o2.Reply[0] {
		t.Fatal("two memory hits in the entry's own names keep two copies of one body")
	}

	jr, br := result(t, renamed)
	check(t, renamed, br, TierMemory)
	if !strings.Contains(string(br), `act@4 8`) || strings.Contains(string(br), `x@4 8`) {
		t.Fatalf("renamed hit not answered in its own names:\n%s", br)
	}
	if or, _ := jr.Outcome(); &or.Reply[0] == &o1.Reply[0] {
		t.Fatal("a renamed hit answered with the entry's own body")
	}

	// other evicts own from the one-entry LRU, so own comes from disk.
	if _, err := submitAndWait(context.Background(), s, other, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	jd, bd := result(t, own)
	check(t, own, bd, TierDisk)
	if od, _ := jd.Outcome(); &od.Reply[0] == &o1.Reply[0] {
		t.Fatal("a disk hit answered with the memory-hit body")
	}
}

// BenchmarkSubmitJobHit times one memory-hit job, submit to done, with
// `held` finished jobs already in the store: the job store's cost per
// request must not grow with what it holds.
func BenchmarkSubmitJobHit(b *testing.B) {
	for _, held := range []int{0, 50000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			s := New(Config{Workers: 1, MaxJobs: held + b.N + 1})
			s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
				return stubResult(b), nil
			}
			g := testGraph(b, 1)
			if _, err := submitAndWait(context.Background(), s, g, RequestOptions{}); err != nil {
				b.Fatal(err)
			}
			hit := func() {
				job, err := s.SubmitJobAs(g, RequestOptions{}, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				<-job.Done()
			}
			for i := 0; i < held; i++ {
				hit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
