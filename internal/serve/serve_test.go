package serve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensat"
	"tensat/internal/tenant"
)

// testGraph builds a distinct small graph per seed.
func testGraph(t testing.TB, seed int) *tensat.Graph {
	t.Helper()
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 8+seed)
	g, err := b.Finish(b.Relu(x))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// submitAndWait submits g as a job, waits for it and decodes its
// /result body. When ctx ends first it cancels the job and returns
// ctx's error.
func submitAndWait(ctx context.Context, s *Service, g *tensat.Graph, ro RequestOptions) (*OptimizeReply, error) {
	return submitAndWaitAs(ctx, s, g, ro, nil)
}

// submitAndWaitAs is submitAndWait under tenant tn's admission control.
func submitAndWaitAs(ctx context.Context, s *Service, g *tensat.Graph, ro RequestOptions, tn *tenant.Tenant) (*OptimizeReply, error) {
	job, err := s.SubmitJobAs(g, ro, 0, tn)
	if err != nil {
		return nil, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		job.Cancel()
		<-job.Done()
		return nil, ctx.Err()
	}
	out, err := job.Outcome()
	if err != nil {
		return nil, err
	}
	var reply OptimizeReply
	if err := json.Unmarshal(out.Reply, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// stubResult fabricates a minimal result; the service treats results
// as opaque, so the graph content is irrelevant to these tests.
func stubResult(t testing.TB) *tensat.Result {
	t.Helper()
	return &tensat.Result{Graph: testGraph(t, 0), OrigCost: 2, OptCost: 1}
}

func TestCacheHitSkipsReoptimization(t *testing.T) {
	s := New(Config{Workers: 2})
	var calls atomic.Int64
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return res, nil
	}

	g := testGraph(t, 1)
	first, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	// Second identical request: must be served from the cache, not
	// re-optimized. Rebuild the graph to prove keying is structural.
	second, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if second.Graph != graphText(t, res.Graph) || second.OptCost != res.OptCost {
		t.Fatal("cache returned a different result")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("optimize ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestDistinctOptionsAreDistinctEntries(t *testing.T) {
	s := New(Config{Workers: 2})
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return stubResult(t), nil
	}
	g := testGraph(t, 1)
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{Extractor: "ilp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{Extractor: "greedy"}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("optimize ran %d times, want 2 (different options)", n)
	}
}

func TestEquivalentOptionsShareCacheEntry(t *testing.T) {
	// Base extractor is ILP; spelling it out must key identically to
	// inheriting it.
	s := New(Config{Workers: 2})
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return stubResult(t), nil
	}
	g := testGraph(t, 1)
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{Extractor: "ilp"}); err != nil {
		t.Fatal(err)
	}
	resp, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("request resolving to the same effective options missed the cache")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("optimize ran %d times, want 1", n)
	}
}

func TestILPSolverRequestOption(t *testing.T) {
	s := New(Config{Workers: 2})
	g := testGraph(t, 1)
	for _, name := range []string{"scip", "builtin-seq"} {
		_, err := submitAndWait(context.Background(), s, g, RequestOptions{ILPSolver: name})
		if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "(known: builtin, cbc, highs)") {
			t.Fatalf("ilp_solver %q: err = %v, want ErrBadOptions listing the known names", name, err)
		}
	}

	// The default and "builtin" select the same solver, so they share
	// one entry. Distinct backends are distinct cache keys: under a
	// budget their anytime answers differ, so they must not share
	// entries.
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		return stubResult(t), nil
	}
	for _, name := range []string{"", "builtin"} {
		if _, err := submitAndWait(context.Background(), s, g, RequestOptions{ILPSolver: name}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("optimize ran %d times, want 1 (\"\" and \"builtin\" are one backend)", n)
	}
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{ILPSolver: "cbc"}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("optimize ran %d times, want 2 (different backends)", n)
	}
}

// TestILPStatsCounters runs a real ILP extraction through the service
// and checks the run's solver/presolve counters land in Stats.
func TestILPStatsCounters(t *testing.T) {
	s := New(Config{Workers: 2})
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ILPSolves["builtin/optimal"] != 1 {
		t.Fatalf("ILP solves = %v, want builtin/optimal: 1", st.ILPSolves)
	}
	if st.ILPIncumbents == 0 {
		t.Fatal("no incumbents counted for a completed ILP run")
	}
}

func TestSingleflightDeduplicatesConcurrentIdenticalRequests(t *testing.T) {
	s := New(Config{Workers: 4})
	var calls atomic.Int64
	release := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		calls.Add(1)
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	deduped := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
			errs[i] = err
			if resp != nil {
				deduped[i] = resp.Deduped
			}
		}(i)
	}
	// Wait for all n requests to be either the leader or joined
	// followers, then let the single run finish.
	waitFor(t, func() bool { return s.Stats().Deduped == n-1 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("optimize ran %d times, want 1 (singleflight)", n)
	}
	nDeduped := 0
	for _, d := range deduped {
		if d {
			nDeduped++
		}
	}
	if nDeduped != n-1 {
		t.Fatalf("%d requests report deduped, want %d", nDeduped, n-1)
	}
}

func TestCanceledContextReturnsPromptlyWithoutPoisoningCache(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		close(started)
		<-ctx.Done() // simulate an optimization that honors cancellation
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := submitAndWait(ctx, s, testGraph(t, 1), RequestOptions{})
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request did not return promptly")
	}

	// The aborted run must not have been cached: the next identical
	// request re-optimizes (and succeeds this time).
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	resp, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("canceled run poisoned the cache")
	}
	if st := s.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}
}

func TestAbandonedRunIsCanceledWhenLastWaiterLeaves(t *testing.T) {
	s := New(Config{Workers: 1})
	workCtxDone := make(chan struct{})
	started := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		close(started)
		<-ctx.Done()
		close(workCtxDone)
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := submitAndWait(ctx, s, testGraph(t, 1), RequestOptions{})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// With no waiters left, the shared work context must be canceled so
	// the run is not stranded.
	select {
	case <-workCtxDone:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run kept working after the last waiter left")
	}
}

func TestConcurrentDistinctRequestsRunInParallel(t *testing.T) {
	const n = 4
	s := New(Config{Workers: n})
	var running, peak atomic.Int64
	barrier := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		cur := running.Add(1)
		defer running.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-barrier // all n must be inside optimize at once to proceed
		return stubResult(t), nil
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = submitAndWait(context.Background(), s, testGraph(t, i), RequestOptions{})
		}(i)
	}
	waitFor(t, func() bool { return running.Load() == n })
	close(barrier)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if p := peak.Load(); p != n {
		t.Fatalf("peak concurrency = %d, want %d", p, n)
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	s := New(Config{Workers: 2})
	var running, peak atomic.Int64
	release := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		cur := running.Add(1)
		defer running.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-release
		return stubResult(t), nil
	}

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := submitAndWait(context.Background(), s, testGraph(t, i), RequestOptions{}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, func() bool { return running.Load() == 2 })
	close(release)
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency = %d, want <= 2", p)
	}
	if st := s.Stats(); st.Completed != n {
		t.Fatalf("completed = %d, want %d", st.Completed, n)
	}
}

func TestFailedRunIsNotCached(t *testing.T) {
	s := New(Config{Workers: 1})
	fail := errors.New("solver exploded")
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		if calls.Add(1) == 1 {
			return nil, fail
		}
		return stubResult(t), nil
	}
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{}); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want %v", err, fail)
	}
	resp, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("failed run was cached")
	}
	if st := s.Stats(); st.Errors != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 error / 1 completed", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2, 0)
	r1, r2, r3 := &cachedResult{}, &cachedResult{}, &cachedResult{}
	c.add("a", r1, 1)
	c.add("b", r2, 1)
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.add("c", r3, 1)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if got, ok := c.get("a"); !ok || got != r1 {
		t.Fatal("a evicted or wrong")
	}
	if got, ok := c.get("c"); !ok || got != r3 {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestRequestOptionsValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{Extractor: "quantum"}); err == nil {
		t.Fatal("unknown extractor accepted")
	}
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{CycleFilter: "perhaps"}); err == nil {
		t.Fatal("unknown cycle filter accepted")
	}
}

// TestBaseOptionsKeptWhenAnyFieldSet: a Config.Base that sets any one
// field of tensat.Options, whatever it is, is the service's template;
// only the all-zero Base is swapped for tensat.DefaultOptions.
func TestBaseOptionsKeptWhenAnyFieldSet(t *testing.T) {
	if got := New(Config{Workers: 1}).cfg.Base; !reflect.DeepEqual(got, tensat.DefaultOptions()) {
		t.Fatalf("zero Base became %+v, want DefaultOptions", got)
	}
	typ := reflect.TypeOf(tensat.Options{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			var base tensat.Options
			v := reflect.ValueOf(&base).Elem().Field(i)
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(7)
			case reflect.String:
				v.SetString("x")
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Func:
				v.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { return nil }))
			default:
				t.Fatalf("field %s has kind %s: give it a non-zero value here", f.Name, f.Type.Kind())
			}
			got := reflect.ValueOf(New(Config{Workers: 1, Base: base}).cfg.Base)
			for j := range typ.NumField() {
				if want := j == i; !got.Field(j).IsZero() != want {
					t.Errorf("Base with only %s set: field %s zero = %v", f.Name, typ.Field(j).Name, !want)
				}
			}
		})
	}
}

// TestEndToEndRealOptimize exercises the real pipeline (no stub): the
// figure-2 graph through greedy extraction, twice, expecting one cold
// run and one cache hit with identical results.
func TestEndToEndRealOptimize(t *testing.T) {
	s := New(Config{Workers: 2, Base: fastOptions()})
	build := func() *tensat.Graph {
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
	cold, err := submitAndWait(context.Background(), s, build(), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.OptCost >= cold.OrigCost {
		t.Fatalf("no improvement: %v -> %v", cold.OrigCost, cold.OptCost)
	}
	warm, err := submitAndWait(context.Background(), s, build(), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second identical optimize was not a cache hit")
	}
	warm.Cached, warm.CacheTier = false, ""
	if *warm != *cold {
		t.Fatal("cache returned a different result")
	}
	if len(cold.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q is not 64 hex chars", cold.Fingerprint)
	}
	st := s.Stats()
	if st.P50MS <= 0 || st.P95MS < st.P50MS {
		t.Fatalf("latency percentiles not recorded: %+v", st)
	}
}

// fastOptions keeps real optimizations test-friendly.
func fastOptions() tensat.Options {
	o := tensat.DefaultOptions()
	o.NodeLimit = 2000
	o.IterLimit = 5
	o.ILPTimeout = 30 * time.Second
	return o
}

// waitFor polls cond until true or the test deadline looms.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
