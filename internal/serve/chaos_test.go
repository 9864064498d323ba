package serve

// Chaos tests: the degradation ladder under injected faults — pipeline
// panics isolated to their request, store I/O failures flipping the
// store into degraded mode (and recovering on reprobe), peer outages
// degrading to local compute behind the circuit breaker, and SIGTERM
// graceful drain. Every scenario asserts the daemon keeps answering —
// byte-identically where full quality is possible, with explicit
// degradation markers where it is not — and that each rung of the
// ladder is observable in Stats.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensat"
	"tensat/internal/breaker"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/fault"
)

// rewriteGraph builds a graph the default rule set actually rewrites
// (the paper's figure-2 shape: two matmuls sharing an input), so the
// rewrite.apply injection point is reached by a real run.
func rewriteGraph(t testing.TB) *tensat.Graph {
	t.Helper()
	b := tensat.NewBuilder()
	x := b.Input("x", 8, 16)
	w1 := b.Weight("w1", 16, 16)
	w2 := b.Weight("w2", 16, 16)
	g, err := b.Finish(b.Matmul(tensat.ActNone, x, w1), b.Matmul(tensat.ActNone, x, w2))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPipelinePanicIsIsolated drives a real optimization into an
// injected panic inside rule application and asserts the full ladder:
// the request fails with *tensat.PanicError (never a dead process),
// the panic is counted at the "optimizer" site, nothing is cached, and
// once the fault clears the same service answers the same request
// byte-identically to an unfaulted control run.
func TestPipelinePanicIsIsolated(t *testing.T) {
	defer fault.Reset()
	s := New(Config{Workers: 2}) // real pipeline — no injected optimize
	g := rewriteGraph(t)

	fault.Arm("rewrite.apply", fault.Action{Mode: fault.ModePanic, Count: 1})
	_, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	var perr *tensat.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("faulted run: err = %v, want *tensat.PanicError", err)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if got := s.Stats(); got.Panics["optimizer"] != 1 {
		t.Fatalf("panics = %v, want optimizer:1", got.Panics)
	}

	// The failed run must not have been cached; the retry recomputes.
	fault.Reset()
	retry, err := submitAndWait(context.Background(), s, g, RequestOptions{})
	if err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
	if retry.Cached {
		t.Fatal("panicked run's result was served from cache")
	}

	control := New(Config{Workers: 2})
	want, err := submitAndWait(context.Background(), control, rewriteGraph(t), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantText := retry.Graph, want.Graph; got != wantText {
		t.Fatalf("post-fault result differs from control:\n%s\nvs\n%s", got, wantText)
	}
}

// TestHTTPPanicAnswersInternalError: a panic escaping the injected
// optimize function (i.e. from serving code, not the pipeline) is
// recovered at the worker site, the failed job's result is a 500 with
// the stable "internal_error" code, and the daemon keeps serving: the
// next request over the same connection pool succeeds.
func TestHTTPPanicAnswersInternalError(t *testing.T) {
	s := New(Config{Workers: 2})
	res := stubResult(t)
	var boom atomic.Bool
	boom.Store(true)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		if boom.Swap(false) {
			panic("chaos: injected worker panic")
		}
		return res, nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	post := func() (*http.Response, errorReply) {
		t.Helper()
		resp, raw := runJobHTTP(t, ts.URL, OptimizeRequest{Graph: graphText(t, testGraph(t, 1))}, nil)
		var er errorReply
		_ = json.Unmarshal(raw, &er)
		return resp, er
	}

	resp, er := post()
	if resp.StatusCode != http.StatusInternalServerError || er.Code != "internal_error" {
		t.Fatalf("faulted request: status %d code %q, want 500 internal_error", resp.StatusCode, er.Code)
	}
	if got := s.Stats(); got.Panics["worker"] != 1 {
		t.Fatalf("panics = %v, want worker:1", got.Panics)
	}
	resp, _ = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d, want 200 (daemon survived)", resp.StatusCode)
	}
}

// TestJobPanicReachesTerminalState: a panic during an asynchronous job
// is recovered at the job site and the job still reaches "failed" —
// watchers blocked on Done are released, never hung.
func TestJobPanicReachesTerminalState(t *testing.T) {
	s := New(Config{Workers: 2})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		panic("chaos: injected job panic")
	}
	job, err := s.SubmitJobAs(testGraph(t, 1), RequestOptions{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached a terminal state after a panic")
	}
	_, jerr := job.Outcome()
	var perr *tensat.PanicError
	if !errors.As(jerr, &perr) {
		t.Fatalf("job outcome err = %v, want *tensat.PanicError", jerr)
	}
	status, _ := job.Status()
	if status != JobFailed {
		t.Fatalf("job status = %s, want failed", status)
	}
	// The panic crossed the optimizer boundary via the flight, so it is
	// counted once at the worker site (the recover that caught it).
	if got := s.Stats(); got.Panics["worker"] != 1 {
		t.Fatalf("panics = %v, want worker:1", got.Panics)
	}
}

// TestStoreDegradedModeAndRecovery walks the store rung of the ladder:
// an injected ENOSPC on the write-through flips the store into
// degraded mode (one mode transition, not an error storm — subsequent
// requests skip the store quietly), the memory tier keeps serving, and
// after the reprobe interval one probe operation flips it back.
func TestStoreDegradedModeAndRecovery(t *testing.T) {
	defer fault.Reset()
	st, err := cachestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 2, Store: st, storeReprobe: 50 * time.Millisecond})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return res, nil
	}

	fault.Arm("store.put", fault.Action{Mode: fault.ModeENOSPC, Count: 1})
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{}); err != nil {
		t.Fatalf("request must survive a store write failure: %v", err)
	}
	got := s.Stats()
	if !got.StoreDegraded {
		t.Fatal("store not degraded after ENOSPC write-through")
	}
	if got.StoreErrors != 1 {
		t.Fatalf("store errors = %d, want 1", got.StoreErrors)
	}

	// Memory keeps serving the result whose write-through failed.
	warm, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.CacheTier != TierMemory {
		t.Fatalf("cached=%v tier=%q, want memory hit while degraded", warm.Cached, warm.CacheTier)
	}
	// A different request inside the reprobe window skips the store
	// quietly: no new store errors, no store misses — and no crash.
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 2), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.StoreErrors != 1 {
		t.Fatalf("store errors grew to %d while degraded, want steady 1", got.StoreErrors)
	}

	// After the reprobe interval (fault long cleared), the next store
	// operation probes, succeeds, and recovers the tier.
	time.Sleep(60 * time.Millisecond)
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 3), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.StoreDegraded {
		t.Fatal("store still degraded after successful reprobe")
	}
	// Writes flow again: the recovery request's write-through landed.
	if st.Len() == 0 {
		t.Fatal("no records on disk after recovery")
	}
}

// graphsOwnedBy returns n distinct graphs (advancing *seed past the
// ones it consumes) whose cache keys the named node primarily owns
// from s's perspective — callers reuse one seed cursor to keep every
// returned key cold.
func graphsOwnedBy(t testing.TB, s *Service, node string, seed *int, n int) []*tensat.Graph {
	t.Helper()
	var out []*tensat.Graph
	for limit := *seed + 512; len(out) < n; *seed++ {
		if *seed > limit {
			t.Fatalf("ring degenerate: no keys hash to node %s", node)
		}
		cand := testGraph(t, *seed)
		q, err := s.prepare(cand, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if owner, local := s.cfg.Cluster.Owner(q.key); !local && owner == node {
			out = append(out, cand)
		}
	}
	return out
}

// TestPeerOutageDegradesToLocalCompute: node B owns the key and dies;
// node A's requests keep succeeding byte-identically from local
// compute while B's breaker trips, and when B comes back the peer tier
// resumes. No request ever fails because a peer did.
func TestPeerOutageDegradesToLocalCompute(t *testing.T) {
	// baseURL is read by A's background push workers while the test
	// restarts B under a new URL, so it is guarded.
	var urlMu sync.Mutex
	baseURL := map[string]string{}
	setURL := func(node, url string) {
		urlMu.Lock()
		baseURL[node] = url
		urlMu.Unlock()
	}
	urlOf := func(node string) string {
		urlMu.Lock()
		defer urlMu.Unlock()
		return baseURL[node]
	}
	mkClient := func(self string) *cluster.Client {
		cl, err := cluster.New(cluster.Config{
			Self:             self,
			Peers:            []string{"a", "b"},
			Timeout:          2 * time.Second,
			BaseURL:          urlOf,
			Secret:           testClusterSecret,
			BreakerThreshold: 2,
			BreakerCooldown:  100 * time.Millisecond,
			RetryAttempts:    -1, // retries off: the breaker math stays exact
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	res := stubResult(t)
	newNode := func(self string) (*Service, *httptest.Server) {
		s := New(Config{Workers: 2, Cluster: mkClient(self)})
		s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
			return res, nil
		}
		ts := httptest.NewServer(NewHandler(s))
		setURL(self, ts.URL)
		return s, ts
	}
	sA, tsA := newNode("a")
	defer tsA.Close()
	defer sA.cfg.Cluster.Close()
	sB, tsB := newNode("b")
	defer sB.cfg.Cluster.Close()

	// A key owned by B, warmed on B through its own service so A's
	// first fetch hits.
	seed := 1
	warmG := graphsOwnedBy(t, sA, "b", &seed, 1)[0]
	if _, err := submitAndWait(context.Background(), sB, warmG, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	hit, err := submitAndWait(context.Background(), sA, warmG, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.CacheTier != TierPeer {
		t.Fatalf("cached=%v tier=%q, want peer hit while B is up", hit.Cached, hit.CacheTier)
	}
	control := hit.Graph

	// Kill B. A must keep answering the same key byte-identically from
	// its (now warm) memory; cold keys owned by B compute locally.
	tsB.Close()
	again, err := submitAndWait(context.Background(), sA, warmG, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Graph; got != control {
		t.Fatal("result changed after peer death")
	}
	// Two cold fetches against dead B trip the breaker (threshold 2);
	// requests still succeed via local compute.
	for _, cg := range graphsOwnedBy(t, sA, "b", &seed, 3) {
		resp, err := submitAndWait(context.Background(), sA, cg, RequestOptions{})
		if err != nil {
			t.Fatalf("request failed during peer outage: %v", err)
		}
		if got := resp.Graph; got != graphText(t, res.Graph) {
			t.Fatal("local compute returned a different result during outage")
		}
	}
	if st := sA.cfg.Cluster.BreakerStates()["b"]; st != breaker.Open {
		t.Fatalf("breaker for b = %v, want open after repeated failures", st)
	}

	// Restart B on a fresh listener; after the cooldown A's half-open
	// probe closes the breaker and the peer tier serves again.
	tsB2 := httptest.NewServer(NewHandler(sB))
	defer tsB2.Close()
	setURL("b", tsB2.URL)
	time.Sleep(120 * time.Millisecond)
	probe := graphsOwnedBy(t, sA, "b", &seed, 1)[0]
	if _, err := submitAndWait(context.Background(), sB, probe, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	recovered, err := submitAndWait(context.Background(), sA, probe, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Cached || recovered.CacheTier != TierPeer {
		t.Fatalf("cached=%v tier=%q, want peer hit after recovery", recovered.Cached, recovered.CacheTier)
	}
	if st := sA.cfg.Cluster.BreakerStates()["b"]; st != breaker.Closed {
		t.Fatalf("breaker for b = %v, want closed after recovery", st)
	}
}

// TestDrainLifecycle: BeginDrain refuses new work with ErrDraining,
// Drain waits for running jobs (honoring its context deadline), and a
// tracked job finishing releases the wait.
func TestDrainLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	release := make(chan struct{})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-release:
			return res, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	job, err := s.SubmitJobAs(testGraph(t, 1), RequestOptions{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if _, err := s.SubmitJobAs(testGraph(t, 2), RequestOptions{}, 0, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("SubmitJobAs while draining: %v, want ErrDraining", err)
	}
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 2), RequestOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit and wait while draining: %v, want ErrDraining", err)
	}

	// The job is still running: a short drain deadline expires.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = s.Drain(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with running job = %v, want deadline exceeded", err)
	}

	// Release the job; Drain completes and the job finished properly.
	close(release)
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("Drain returned before the job reached a terminal state")
	}
	if status, _ := job.Status(); status != JobDone {
		t.Fatalf("job status = %s, want done (jobs finish during drain)", status)
	}
}

// TestDrainHTTP: the HTTP surface of a draining node — /readyz flips
// to 503, submissions answer 503 with the "draining" code and a
// Retry-After, and an open SSE stream receives a terminal "draining"
// event instead of hanging.
func TestDrainHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	release := make(chan struct{})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-release:
			return res, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	defer close(release)

	readyz := func() (int, ReadyzReply) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr ReadyzReply
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}
	if status, rr := readyz(); status != http.StatusOK || !rr.Ready {
		t.Fatalf("readyz before drain: status %d ready %v, want 200 ready", status, rr.Ready)
	}

	job, err := s.SubmitJobAs(testGraph(t, 1), RequestOptions{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Open the SSE stream before draining.
	events, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()

	s.BeginDrain()

	if status, rr := readyz(); status != http.StatusServiceUnavailable || !rr.Draining {
		t.Fatalf("readyz while draining: status %d draining %v, want 503 draining", status, rr.Draining)
	}
	body, err := json.Marshal(OptimizeRequest{Graph: graphText(t, testGraph(t, 2))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er errorReply
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || er.Code != "draining" {
		t.Fatalf("job submit while draining: status %d code %q, want 503 draining", resp.StatusCode, er.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 draining reply carries no Retry-After")
	}

	// The SSE stream must terminate with a "draining" event.
	sawDraining := make(chan bool, 1)
	go func() {
		scanner := bufio.NewScanner(events.Body)
		for scanner.Scan() {
			if strings.HasPrefix(scanner.Text(), "event: draining") {
				sawDraining <- true
				return
			}
		}
		sawDraining <- false
	}()
	select {
	case ok := <-sawDraining:
		if !ok {
			t.Fatal("SSE stream ended without a draining event")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate on drain")
	}
}
