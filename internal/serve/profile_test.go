package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tensat"
	"tensat/internal/tensor"
)

// waitJobResult polls a job's result endpoint until it answers 200.
func waitJobResult(t *testing.T, url, id string) OptimizeReply {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var reply OptimizeReply
			if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
				t.Fatalf("bad result %q: %v", buf.String(), err)
			}
			return reply
		case http.StatusConflict:
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish: %s", id, buf.String())
			}
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("result status %d: %s", resp.StatusCode, buf.String())
		}
	}
}

// TestCrossProfileCacheIsolation is the acceptance-criteria walk: the
// same graph optimized under the t4 and a100 profiles must produce
// distinct, never-shared cache entries (no cross-profile hits), while
// resubmitting a profile is a hit within that profile.
func TestCrossProfileCacheIsolation(t *testing.T) {
	s, ts := newTestServer(t)
	req := func(device string) OptimizeRequest {
		return OptimizeRequest{
			Graph: figure2Wire,
			Options: RequestOptions{
				CostModel: device,
				Extractor: "greedy",
				IterLimit: 3,
				NodeLimit: 1000,
			},
		}
	}

	status, t4job, raw := postJob(t, ts.URL, req("t4"))
	if status != http.StatusAccepted {
		t.Fatalf("t4 submit status %d: %s", status, raw)
	}
	if t4job.CostModel != "t4" || t4job.RuleSet != tensat.DefaultRuleSetName {
		t.Fatalf("job profile = %s/%s, want %s/t4", t4job.RuleSet, t4job.CostModel, tensat.DefaultRuleSetName)
	}
	t4res := waitJobResult(t, ts.URL, t4job.ID)

	status, a100job, raw := postJob(t, ts.URL, req("a100"))
	if status != http.StatusAccepted {
		t.Fatalf("a100 submit status %d: %s", status, raw)
	}
	a100res := waitJobResult(t, ts.URL, a100job.ID)

	if a100res.Cached || a100res.Deduped {
		t.Fatalf("a100 run answered from the t4 profile (cached=%v deduped=%v)", a100res.Cached, a100res.Deduped)
	}
	if a100res.Fingerprint != t4res.Fingerprint {
		t.Errorf("graph fingerprint changed across profiles: %s vs %s", t4res.Fingerprint, a100res.Fingerprint)
	}
	if a100res.OrigCost == t4res.OrigCost {
		t.Errorf("a100 priced the graph identically to t4 (%v)", t4res.OrigCost)
	}
	if got := s.Stats().CacheEntries; got != 2 {
		t.Errorf("cache entries = %d, want 2 (one per profile)", got)
	}

	// Within a profile the cache works as before.
	status, again, raw := postJob(t, ts.URL, req("a100"))
	if status != http.StatusAccepted {
		t.Fatalf("a100 resubmit status %d: %s", status, raw)
	}
	againRes := waitJobResult(t, ts.URL, again.ID)
	if !againRes.Cached {
		t.Error("identical profile resubmission was not a cache hit")
	}
	if againRes.OptCost != a100res.OptCost {
		t.Errorf("cached a100 result drifted: %v vs %v", againRes.OptCost, a100res.OptCost)
	}

	// A different rule set is a third profile: distinct from both
	// device-only variants, never answered from their entries.
	rsReq := req("a100")
	rsReq.Options.RuleSet = tensat.SingleRuleSetName
	status, rsJob, raw := postJob(t, ts.URL, rsReq)
	if status != http.StatusAccepted {
		t.Fatalf("taso-single submit status %d: %s", status, raw)
	}
	if rsJob.RuleSet != tensat.SingleRuleSetName || rsJob.CostModel != "a100" {
		t.Fatalf("job profile = %s/%s, want %s/a100", rsJob.RuleSet, rsJob.CostModel, tensat.SingleRuleSetName)
	}
	rsRes := waitJobResult(t, ts.URL, rsJob.ID)
	if rsRes.Cached || rsRes.Deduped {
		t.Fatalf("taso-single/a100 run answered from another profile (cached=%v deduped=%v)", rsRes.Cached, rsRes.Deduped)
	}
	if got := s.Stats().CacheEntries; got != 3 {
		t.Errorf("cache entries = %d, want 3 (one per profile)", got)
	}

	// The explicit default profile shares the implicit default's entry.
	status, dflt, raw := postOptimize(t, ts.URL, OptimizeRequest{
		Graph: figure2Wire,
		Options: RequestOptions{
			RuleSet:   tensat.DefaultRuleSetName,
			CostModel: "t4",
			Extractor: "greedy",
			IterLimit: 3,
			NodeLimit: 1000,
		},
	})
	if status != http.StatusOK {
		t.Fatalf("explicit default status %d: %s", status, raw)
	}
	if !dflt.Cached {
		t.Error("spelling out the default profile missed the implicit default's cache entry")
	}

	// Per-profile stats counted every request.
	st := s.Stats()
	label := tensat.DefaultRuleSetName + "/"
	if st.Profiles[label+"t4"] != 2 || st.Profiles[label+"a100"] != 2 {
		t.Errorf("profile counters = %v, want 2 t4 and 2 a100", st.Profiles)
	}
}

// TestUnknownProfileNamesAre400s checks unknown profile names are
// rejected with a client error listing what exists.
func TestUnknownProfileNamesAre400s(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		opts     RequestOptions
		wantName string
	}{
		{RequestOptions{RuleSet: "warp-drive"}, "taso-default"},
		{RequestOptions{CostModel: "warp-drive"}, "t4"},
	} {
		opts := c.opts
		status, _, raw := postJob(t, ts.URL, OptimizeRequest{Graph: figure2Wire, Options: opts})
		if status != http.StatusBadRequest {
			t.Fatalf("job submit with %+v: status %d, want 400: %s", opts, status, raw)
		}
		if !bytes.Contains([]byte(raw), []byte("known:")) || !bytes.Contains([]byte(raw), []byte(c.wantName)) {
			t.Errorf("error %q does not list the known names (want %q)", raw, c.wantName)
		}
		status, _, raw = postOptimize(t, ts.URL, OptimizeRequest{Graph: figure2Wire, Options: opts})
		if status != http.StatusBadRequest {
			t.Fatalf("submit-and-wait with %+v: status %d, want 400: %s", opts, status, raw)
		}
	}
}

// TestNegativeWorkersRejected: a negative workers knob is a 400, not a
// silent coercion.
func TestNegativeWorkersRejected(t *testing.T) {
	_, ts := newTestServer(t)
	status, _, raw := postJob(t, ts.URL, OptimizeRequest{
		Graph:   figure2Wire,
		Options: RequestOptions{Workers: -2},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("negative workers: status %d, want 400: %s", status, raw)
	}
}

// TestDiscoveryEndpoints lists rule sets and cost models — built-ins
// plus a file-loaded profile — over HTTP.
func TestDiscoveryEndpoints(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mini.rules"),
		[]byte("fuse: (relu (matmul 0 ?x ?y)) => (matmul 2 ?x ?y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "lab.json"),
		[]byte(`{"name":"lab","peak_gflops":100,"mem_bw_gbps":10,"op_scale":{"tanh":3}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := tensat.NewRegistry()
	if _, err := reg.LoadRulesDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadDevicesDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Base: fastOptions(), Registry: reg})
	hts := httptest.NewServer(NewHandler(s))
	t.Cleanup(hts.Close)
	ts := hts.URL

	var rsets RuleSetsReply
	getJSON(t, ts+"/v1/rulesets", &rsets)
	found := map[string]RuleSetReply{}
	for _, r := range rsets.RuleSets {
		found[r.Name] = r
	}
	for _, name := range []string{tensat.DefaultRuleSetName, tensat.SingleRuleSetName, "mini"} {
		r, ok := found[name]
		if !ok {
			t.Fatalf("/v1/rulesets missing %q: %+v", name, rsets)
		}
		if len(r.Hash) != 64 || r.Rules == 0 {
			t.Errorf("ruleset %q incomplete: %+v", name, r)
		}
	}
	if found["mini"].Rules != 1 || found["mini"].Source == "builtin" {
		t.Errorf("loaded ruleset row wrong: %+v", found["mini"])
	}

	var cms CostModelsReply
	getJSON(t, ts+"/v1/costmodels", &cms)
	foundCM := map[string]CostModelReply{}
	for _, c := range cms.CostModels {
		foundCM[c.Name] = c
	}
	for _, name := range []string{"t4", "a100", "cpu", "lab"} {
		c, ok := foundCM[name]
		if !ok {
			t.Fatalf("/v1/costmodels missing %q: %+v", name, cms)
		}
		if len(c.Hash) != 64 || c.Params == 0 {
			t.Errorf("costmodel %q incomplete: %+v", name, c)
		}
	}
	if foundCM["lab"].Params != 6 {
		t.Errorf("lab params = %d, want 6", foundCM["lab"].Params)
	}
}

// TestJobListing covers GET /v1/jobs: ids, statuses, ages and profile
// labels for everything the store holds, running and finished.
func TestJobListing(t *testing.T) {
	s, ts := newTestServer(t)
	block := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-block:
			return &tensat.Result{Graph: g}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	g, err := tensor.UnmarshalGraph([]byte(figure2Wire))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s.SubmitJob(g, RequestOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.SubmitJob(g, RequestOptions{CostModel: "cpu", RuleSet: tensat.SingleRuleSetName}, 0)
	if err != nil {
		t.Fatal(err)
	}

	var listing JobListReply
	getJSON(t, ts.URL+"/v1/jobs", &listing)
	if listing.Count != 2 || len(listing.Jobs) != 2 {
		t.Fatalf("listing = %+v, want 2 jobs", listing)
	}
	rows := map[string]JobSummaryReply{}
	for _, row := range listing.Jobs {
		rows[row.ID] = row
		if row.Status != string(JobRunning) {
			t.Errorf("job %s status %q, want running", row.ID, row.Status)
		}
		if row.AgeMS < 0 {
			t.Errorf("job %s age %v negative", row.ID, row.AgeMS)
		}
		if row.StatusURL != "/v1/jobs/"+row.ID {
			t.Errorf("job %s status_url %q", row.ID, row.StatusURL)
		}
	}
	if r := rows[j1.ID()]; r.RuleSet != tensat.DefaultRuleSetName || r.CostModel != "t4" {
		t.Errorf("default job profile = %s/%s", r.RuleSet, r.CostModel)
	}
	if r := rows[j2.ID()]; r.RuleSet != tensat.SingleRuleSetName || r.CostModel != "cpu" {
		t.Errorf("profile job = %s/%s, want %s/cpu", r.RuleSet, r.CostModel, tensat.SingleRuleSetName)
	}

	close(block)
	<-j1.Done()
	<-j2.Done()
	getJSON(t, ts.URL+"/v1/jobs", &listing)
	if listing.Count != 2 {
		t.Fatalf("finished jobs fell out of the listing early: %+v", listing)
	}
	for _, row := range listing.Jobs {
		if row.Status != string(JobDone) {
			t.Errorf("job %s status %q, want done", row.ID, row.Status)
		}
	}
}

// TestOperationalPaths: /v1/stats and /v1/healthz answer.
func TestOperationalPaths(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/stats", "/v1/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	var st StatsReply
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Workers != 2 {
		t.Errorf("/v1/stats workers = %d, want 2", st.Workers)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
