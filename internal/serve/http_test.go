package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tensat"
	"tensat/internal/tenant"
	"tensat/internal/tensor"
)

// figure2Wire is the figure-2 graph in the wire format, with names and
// let-binding structure deliberately different from what MarshalText
// would emit — the service must key on structure, not spelling.
const figure2Wire = `
(let shared (input "activations@64 256"))
(output (matmul 0 shared (weight "wa@256 256")))
(output (matmul 0 shared (weight "wb@256 256")))
`

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, Base: fastOptions()})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

// runJobHTTP is the synchronous view of the /v1 job surface that the
// suites assert on: submit, read the event stream to its end (the
// job's terminal event), fetch the result. A refused submission is
// returned as is. hdr goes out on all three requests.
func runJobHTTP(t testing.TB, url string, req OptimizeRequest, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path string, body []byte) (*http.Response, []byte) {
		t.Helper()
		r, err := http.NewRequest(method, url+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			r.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	resp, raw := do(http.MethodPost, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		return resp, raw
	}
	var job JobReply
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("bad job reply %q: %v", raw, err)
	}
	do(http.MethodGet, job.EventsURL, nil)
	return do(http.MethodGet, job.ResultURL, nil)
}

func postOptimize(t *testing.T, url string, req OptimizeRequest) (int, OptimizeReply, string) {
	t.Helper()
	resp, raw := runJobHTTP(t, url, req, nil)
	var reply OptimizeReply
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("bad reply %q: %v", raw, err)
		}
	}
	return resp.StatusCode, reply, string(raw)
}

// TestHTTPOptimizeEndToEnd drives the full daemon surface: a cold
// optimize, then an identical request (spelled differently) that must
// be a cache hit, then /v1/stats reflecting both.
func TestHTTPOptimizeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	status, cold, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: figure2Wire})
	if status != http.StatusOK {
		t.Fatalf("cold status %d: %s", status, raw)
	}
	if cold.Cached {
		t.Fatal("cold request reported cached")
	}
	if cold.OptCost >= cold.OrigCost {
		t.Fatalf("no improvement: %v -> %v", cold.OrigCost, cold.OptCost)
	}
	if len(cold.Fingerprint) != 64 {
		t.Fatalf("bad fingerprint %q", cold.Fingerprint)
	}
	// The reply graph must round-trip through the wire format.
	if _, err := tensor.UnmarshalGraph([]byte(cold.Graph)); err != nil {
		t.Fatalf("reply graph does not parse: %v\n%s", err, cold.Graph)
	}

	// Same structure, different names and spelling: cache hit.
	warmWire := `(output (matmul 0 (input "x@64 256") (weight "w1@256 256")))` + "\n" +
		`(output (matmul 0 (input "x@64 256") (weight "w2@256 256")))`
	status, warm, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: warmWire})
	if status != http.StatusOK {
		t.Fatalf("warm status %d: %s", status, raw)
	}
	if !warm.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", cold.Fingerprint, warm.Fingerprint)
	}
	if warm.OptCost != cold.OptCost {
		t.Fatalf("cached cost drifted: %v vs %v", cold.OptCost, warm.OptCost)
	}
	// The cached answer must be spelled in THIS requester's tensor
	// names, not the original submitter's.
	for _, want := range []string{`"x@64 256"`, `"w1@256 256"`, `"w2@256 256"`} {
		if !strings.Contains(warm.Graph, want) {
			t.Fatalf("cached reply not in requester vocabulary (missing %s):\n%s", want, warm.Graph)
		}
	}
	if strings.Contains(warm.Graph, "activations") || strings.Contains(warm.Graph, `"wa@`) {
		t.Fatalf("cached reply leaks the original submitter's names:\n%s", warm.Graph)
	}
	// And the cold reply keeps the first submitter's names.
	if !strings.Contains(cold.Graph, "activations@64 256") {
		t.Fatalf("cold reply lost its own names:\n%s", cold.Graph)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 completed", st)
	}
	if st.CacheEntries != 1 || st.P50MS <= 0 {
		t.Fatalf("stats = %+v, want 1 cache entry and positive p50", st)
	}
}

// TestHTTPConcurrentDistinctRequests exercises the pool through the
// HTTP layer: distinct graphs in flight at once, all 200.
func TestHTTPConcurrentDistinctRequests(t *testing.T) {
	_, ts := newTestServer(t)
	graphs := []string{
		`(output (relu (input "x@8 8")))`,
		`(output (tanh (input "x@8 8")))`,
		`(output (sigmoid (input "x@8 8")))`,
		`(output (relu (input "x@8 16")))`,
	}
	var wg sync.WaitGroup
	codes := make([]int, len(graphs))
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g string) {
			defer wg.Done()
			codes[i], _, _ = postOptimize(t, ts.URL, OptimizeRequest{
				Graph:   g,
				Options: RequestOptions{Extractor: "greedy"},
			})
		}(i, g)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if st := s0(t, ts); st.Completed != uint64(len(graphs)) {
		t.Fatalf("completed = %d, want %d", st.Completed, len(graphs))
	}
}

func s0(t *testing.T, ts *httptest.Server) StatsReply {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for name, req := range map[string]OptimizeRequest{
		"empty graph":   {},
		"syntax error":  {Graph: "(output (relu"},
		"unknown op":    {Graph: `(output (frobnicate (input "x@8 8")))`},
		"bad extractor": {Graph: `(output (relu (input "x@8 8")))`, Options: RequestOptions{Extractor: "magic"}},
	} {
		status, _, raw := postOptimize(t, ts.URL, req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, raw)
		}
	}
	// Shape-inconsistent graphs are rejected at parse time (the wire
	// decoder shape-checks), also 400.
	status, _, raw := postOptimize(t, ts.URL, OptimizeRequest{
		Graph: `(output (matmul 0 (input "x@64 256") (weight "w@128 128")))`,
	})
	if status != http.StatusBadRequest {
		t.Errorf("shape mismatch: status %d, want 400 (%s)", status, raw)
	}
	// So are graphs with a tensor of more than 2^53 elements, whose
	// volume would overflow and price the graph below zero.
	status, _, raw = postOptimize(t, ts.URL, OptimizeRequest{
		Graph: `(output (relu (ewadd (input "x@3037000500 3037000500") (input "y@3037000500 3037000500"))))`,
	})
	if status != http.StatusBadRequest || !strings.Contains(raw, "bad graph") {
		t.Errorf("overflowing shape: status %d, want 400 bad graph (%s)", status, raw)
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// Wrong method.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/jobs: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestHTTPRequestTimeout verifies timeout_ms bounds the job: when the
// optimization cannot finish in time the job ends canceled and its
// result answers 409.
func TestHTTPRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	status, job, raw := postJob(t, ts.URL, OptimizeRequest{
		Graph:     `(output (relu (input "x@8 8")))`,
		TimeoutMS: 50,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	events := readSSE(t, ts.URL, job.ID)
	var done JobReply
	if last := events[len(events)-1]; last.event != "done" || json.Unmarshal([]byte(last.data), &done) != nil {
		t.Fatalf("SSE final event = %+v, want a done event", last)
	}
	if done.Status != string(JobCanceled) || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want canceled with a deadline error", done)
	}
	resp, err := http.Get(ts.URL + job.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("timed-out result status %d, want 409", resp.StatusCode)
	}
}

// TestRemovedRoutes pins the retirement of the pre-/v1 surface: the
// synchronous submit and the un-prefixed operational paths are 404s,
// and under tenant auth the un-prefixed health path is no longer
// exempt.
func TestRemovedRoutes(t *testing.T) {
	status := func(ts *httptest.Server, method, name, key string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/"+name, strings.NewReader(`{"graph": "(output (relu (input \"x@8 8\")))"}`))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	removed := []struct{ method, name string }{
		{http.MethodPost, "optimize"},
		{http.MethodGet, "stats"},
		{http.MethodGet, "healthz"},
	}
	_, open := newTestServer(t)
	for _, r := range removed {
		if got := status(open, r.method, r.name, ""); got != http.StatusNotFound {
			t.Errorf("%s /%s: status %d, want 404", r.method, r.name, got)
		}
	}

	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	keyed := httptest.NewServer(NewHandler(New(Config{Workers: 1, Tenants: reg})))
	defer keyed.Close()
	if got := status(keyed, http.MethodGet, "healthz", ""); got != http.StatusUnauthorized {
		t.Errorf("keyless /healthz under tenant auth: status %d, want 401", got)
	}
	for _, r := range removed {
		if got := status(keyed, r.method, r.name, "batch-key-1"); got != http.StatusNotFound {
			t.Errorf("keyed %s /%s: status %d, want 404", r.method, r.name, got)
		}
	}
}
