package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tensat"
	"tensat/internal/models"
)

// ---------------------------------------------------------------------------
// A small Prometheus text-exposition parser. Deliberately strict: the
// tests use it to prove /metrics emits format-valid output without
// depending on an external client library.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (\S+)$`)
	labelPairRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// expoFamily is one metric family parsed out of the exposition.
type expoFamily struct {
	typ     string
	help    string
	samples map[string]float64 // "name{labels}" -> value, in order of appearance
	order   []string
}

// parseExposition parses and validates Prometheus text format 0.0.4,
// failing the test on any malformed line, duplicate TYPE, sample
// preceding its TYPE, or illegal metric/label name.
func parseExposition(t testing.TB, body string) map[string]*expoFamily {
	t.Helper()
	fams := map[string]*expoFamily{}
	pendingHelp := map[string]string{} // HELP precedes TYPE in the exposition
	family := func(name string) *expoFamily {
		// Histogram samples carry suffixes; fold them into the base family.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					base = trimmed
				}
			}
		}
		f, ok := fams[base]
		if !ok {
			t.Fatalf("sample for %q before its # TYPE line", name)
		}
		return f
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("illegal metric name %q", name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type %q in %q", typ, line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("duplicate # TYPE for %q", name)
			}
			fams[name] = &expoFamily{typ: typ, help: pendingHelp[name], samples: map[string]float64{}}
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 1 || !metricNameRe.MatchString(fields[0]) {
				t.Fatalf("malformed HELP line %q", line)
			}
			if len(fields) == 2 {
				pendingHelp[fields[0]] = fields[1]
				if f, ok := fams[fields[0]]; ok {
					f.help = fields[1]
				}
			}
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line %q", line)
			}
			name, labels, value := m[1], m[3], m[4]
			if labels != "" {
				// Every byte of the label block must be consumed by
				// well-formed name="escaped value" pairs and separators —
				// leftovers mean broken quoting or an illegal label name.
				consumed := 0
				for _, loc := range labelPairRe.FindAllStringSubmatchIndex(labels, -1) {
					pair := labels[loc[0]:loc[1]]
					lname := labels[loc[2]:loc[3]]
					if !labelNameRe.MatchString(lname) || strings.HasPrefix(lname, "__") {
						t.Fatalf("illegal label name %q in %q", lname, line)
					}
					consumed += len(pair) + 1 // +1 for the comma separator
				}
				if consumed != len(labels)+1 {
					t.Fatalf("label block %q has malformed content in %q", labels, line)
				}
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("unparseable value %q in %q: %v", value, line, err)
			}
			f := family(name)
			key := m[1]
			if m[2] != "" {
				key += m[2]
			}
			if _, dup := f.samples[key]; dup {
				t.Fatalf("duplicate sample %q", key)
			}
			f.samples[key] = v
			f.order = append(f.order, key)
		}
	}
	return fams
}

// scrapeMetrics GETs /metrics, checks the content type, and parses.
func scrapeMetrics(t testing.TB, url string) map[string]*expoFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// checkHistogram asserts a family is a histogram with cumulative,
// non-decreasing buckets whose +Inf bucket equals _count.
func checkHistogram(t testing.TB, fams map[string]*expoFamily, name string) {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("missing histogram family %s", name)
	}
	if f.typ != "histogram" {
		t.Fatalf("%s has type %s, want histogram", name, f.typ)
	}
	// Group buckets by label set minus le, tracking cumulativity.
	type series struct {
		last  float64
		inf   float64
		count float64
	}
	all := map[string]*series{}
	strip := regexp.MustCompile(`,?le="[^"]*"`)
	get := func(key string) *series {
		// Key series by label set only (minus le), so _bucket, _sum and
		// _count samples of one series land together.
		base := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			base = strip.ReplaceAllString(key[i:], "")
		}
		base = strings.ReplaceAll(base, "{,", "{")
		if base == "{}" {
			base = ""
		}
		s, ok := all[base]
		if !ok {
			s = &series{}
			all[base] = s
		}
		return s
	}
	for _, key := range f.order {
		v := f.samples[key]
		switch {
		case strings.HasPrefix(key, name+"_bucket"):
			s := get(key)
			if v < s.last {
				t.Fatalf("%s buckets not cumulative at %q: %v < %v", name, key, v, s.last)
			}
			s.last = v
			if strings.Contains(key, `le="+Inf"`) {
				s.inf = v
			}
		case strings.HasPrefix(key, name+"_count"):
			get(key).count = v
		}
	}
	if len(all) == 0 {
		t.Fatalf("%s has no bucket samples", name)
	}
	for base, s := range all {
		if s.inf != s.count {
			t.Fatalf("%s %s: +Inf bucket %v != count %v", name, base, s.inf, s.count)
		}
	}
}

// TestMetricsExpositionValid boots a service, runs one real job, and
// proves /metrics serves valid exposition carrying every core series.
func TestMetricsExpositionValid(t *testing.T) {
	s, ts := newTestServer(t)

	// A cold run, a cache hit, and a profiled request feed the counters.
	g := testGraph(t, 1)
	if _, err := submitAndWait(context.Background(), s, g, RequestOptions{Extractor: "greedy"}); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{Extractor: "greedy"}); err != nil {
		t.Fatal(err)
	}

	fams := scrapeMetrics(t, ts.URL)
	for _, want := range []struct{ name, typ string }{
		{"tensat_cache_hits_total", "counter"},
		{"tensat_cache_misses_total", "counter"},
		{"tensat_cache_dedup_total", "counter"},
		{"tensat_cache_entries", "gauge"},
		{"tensat_requests_total", "counter"},
		{"tensat_runs_completed_total", "counter"},
		{"tensat_optimizations_inflight", "gauge"},
		{"tensat_jobs_submitted_total", "counter"},
		{"tensat_jobs_running", "gauge"},
		{"tensat_phase_seconds", "histogram"},
		{"tensat_run_seconds", "histogram"},
		{"tensat_egraph_enodes", "gauge"},
		{"tensat_egraph_eclasses", "gauge"},
		{"tensat_search_classes_scanned_total", "counter"},
		{"tensat_search_matches_total", "counter"},
		{"tensat_ilp_presolve_fixed_total", "counter"},
		{"tensat_ilp_presolve_dropped_total", "counter"},
		{"tensat_ilp_presolve_constraints_removed_total", "counter"},
		{"tensat_ilp_incumbents_total", "counter"},
		{"tensat_ilp_solves_total", "counter"},
		{"tensat_workers", "gauge"},
		{"tensat_build_info", "counter"},
	} {
		f, ok := fams[want.name]
		if !ok {
			t.Errorf("missing family %s", want.name)
			continue
		}
		if f.typ != want.typ {
			t.Errorf("%s type %s, want %s", want.name, f.typ, want.typ)
		}
		if f.help == "" {
			t.Errorf("%s has no HELP text", want.name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	checkHistogram(t, fams, "tensat_phase_seconds")
	checkHistogram(t, fams, "tensat_run_seconds")

	if v := fams["tensat_cache_hits_total"].samples["tensat_cache_hits_total"]; v != 1 {
		t.Errorf("cache hits = %v, want 1", v)
	}
	if v := fams["tensat_cache_misses_total"].samples["tensat_cache_misses_total"]; v != 1 {
		t.Errorf("cache misses = %v, want 1", v)
	}
	if v := fams["tensat_runs_completed_total"].samples["tensat_runs_completed_total"]; v != 1 {
		t.Errorf("completed = %v, want 1", v)
	}
	// The cold run's per-phase observations: explore, search, apply,
	// rebuild and the greedy extractor each recorded one latency.
	for _, phase := range []string{"explore", "search", "apply", "rebuild", "extract_greedy"} {
		key := fmt.Sprintf(`tensat_phase_seconds_count{phase="%s"}`, phase)
		if v := fams["tensat_phase_seconds"].samples[key]; v != 1 {
			t.Errorf("%s = %v, want 1", key, v)
		}
	}
}

// TestMetricsProfileLabels checks label hygiene on the per-profile
// request counter: the resolved ruleset/cost_model pair appears as a
// properly quoted label set.
func TestMetricsProfileLabels(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1),
		RequestOptions{RuleSet: "taso-single", CostModel: "cpu"}); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 2), RequestOptions{}); err != nil {
		t.Fatal(err)
	}

	fams := scrapeMetrics(t, ts.URL)
	f := fams["tensat_requests_total"]
	if f == nil {
		t.Fatal("missing tensat_requests_total")
	}
	if v := f.samples[`tensat_requests_total{ruleset="taso-single",cost_model="cpu"}`]; v != 1 {
		t.Fatalf("profiled sample = %v, want 1; have %v", v, f.order)
	}
	if v := f.samples[`tensat_requests_total{ruleset="taso-default",cost_model="t4"}`]; v != 1 {
		t.Fatalf("default-profile sample = %v, want 1; have %v", v, f.order)
	}
}

// TestMetricsCounterMonotonic scrapes before and after work and checks
// every counter sample is non-decreasing across runs.
func TestMetricsCounterMonotonic(t *testing.T) {
	s := New(Config{Workers: 2})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return stubResult(t), nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t, ts.URL)
	for i := 2; i < 6; i++ {
		if _, err := submitAndWait(context.Background(), s, testGraph(t, i), RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// And a cache hit, which bumps a different counter family.
	if _, err := submitAndWait(context.Background(), s, testGraph(t, 1), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t, ts.URL)

	for name, f := range before {
		if f.typ != "counter" && f.typ != "histogram" {
			continue // gauges may go either way
		}
		g, ok := after[name]
		if !ok {
			t.Errorf("family %s disappeared between scrapes", name)
			continue
		}
		for key, v := range f.samples {
			if g.samples[key] < v {
				t.Errorf("%s went backwards: %v -> %v", key, v, g.samples[key])
			}
		}
	}
}

// TestMetricsConcurrentScrape hammers /metrics while optimizations are
// in flight; run under -race this proves the scrape path is race-clean.
func TestMetricsConcurrentScrape(t *testing.T) {
	s := New(Config{Workers: 4})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 1, ENodes: 10})
		return stubResult(t), nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				submitAndWait(context.Background(), s, testGraph(t, seed*100+i), RequestOptions{})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// A final scrape must still be well-formed after the storm.
	fams := scrapeMetrics(t, ts.URL)
	total := fams["tensat_cache_misses_total"].samples["tensat_cache_misses_total"]
	if total != 40 {
		t.Fatalf("cache misses = %v, want 40", total)
	}
}

// TestV1JobTraceEndToEnd runs a real NasRNN job through the HTTP stack
// and verifies the acceptance contract for /v1/jobs/{id}/trace: a span
// tree whose per-phase durations nest consistently and sum to within
// the job's recorded wall time, plus a Chrome-format export.
func TestV1JobTraceEndToEnd(t *testing.T) {
	m, err := models.ByName("NasRNN")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := m.Build(models.ScaleTest).MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t)

	status, job, raw := postJob(t, ts.URL, OptimizeRequest{
		Graph:   string(wire),
		Options: RequestOptions{Extractor: "greedy", NodeLimit: 2000, IterLimit: 3},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	waitFor(t, func() bool {
		_, r := getJob(t, ts.URL, job.ID)
		return r.Status != string(JobRunning)
	})
	if _, r := getJob(t, ts.URL, job.ID); r.Status != string(JobDone) {
		t.Fatalf("job finished as %s (%s)", r.Status, r.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace TraceReply
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}

	root := trace.Trace
	if root.Name != "optimize" {
		t.Fatalf("root span %q, want optimize", root.Name)
	}
	if root.DurationMS <= 0 {
		t.Fatalf("root span has no duration: %+v", root)
	}
	// The trace covers the optimization only; the job wall time also
	// includes queueing, so root <= wall (with scheduling slack).
	if trace.WallMS <= 0 || root.DurationMS > trace.WallMS*1.05+5 {
		t.Fatalf("root %.2fms exceeds job wall %.2fms", root.DurationMS, trace.WallMS)
	}

	// Nesting invariant, recursively: children are sequential phases of
	// their parent, so their durations sum to at most the parent's.
	var checkNesting func(s TraceSpanReply)
	checkNesting = func(s TraceSpanReply) {
		var sum float64
		for _, c := range s.Children {
			sum += c.DurationMS
			checkNesting(c)
		}
		if sum > s.DurationMS*1.01+1 {
			t.Fatalf("span %q: children sum %.2fms > own %.2fms", s.Name, sum, s.DurationMS)
		}
	}
	checkNesting(root)

	phases := map[string]TraceSpanReply{}
	for _, c := range root.Children {
		phases[c.Name] = c
	}
	explore, ok := phases["explore"]
	if !ok {
		t.Fatalf("no explore span; phases %v", root.Children)
	}
	if _, ok := phases["extract"]; !ok {
		t.Fatalf("no extract span; phases %v", root.Children)
	}
	if explore.Attrs["enodes"] <= 0 || explore.Attrs["iterations"] <= 0 {
		t.Fatalf("explore attrs = %v", explore.Attrs)
	}
	if len(explore.Children) == 0 {
		t.Fatal("explore span has no iteration children")
	}
	iter := explore.Children[0]
	if iter.Name != "iteration" {
		t.Fatalf("explore child %q, want iteration", iter.Name)
	}
	sub := map[string]bool{}
	for _, c := range iter.Children {
		sub[c.Name] = true
	}
	for _, want := range []string{"search", "apply", "rebuild"} {
		if !sub[want] {
			t.Fatalf("iteration missing %s span: have %v", want, iter.Children)
		}
	}

	// The Chrome-format export is a JSON array of trace events.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(events) < 5 {
		t.Fatalf("chrome export has %d events, want a full tree", len(events))
	}
	for _, e := range events {
		if e["name"] == "" || e["ph"] == "" {
			t.Fatalf("malformed chrome event %v", e)
		}
	}

	// After a real run the per-phase histograms hold observations.
	fams := scrapeMetrics(t, ts.URL)
	checkHistogram(t, fams, "tensat_phase_seconds")
	if v := fams["tensat_phase_seconds"].samples[`tensat_phase_seconds_count{phase="explore"}`]; v < 1 {
		t.Fatalf("explore phase histogram empty after real job")
	}
}

// TestSSEKeepAlive proves the events stream emits keepalive comment
// lines during a quiet phase (no progress events), so idle connections
// survive proxies, and that /trace answers 409 while running and 404
// for results that carry no trace.
func TestSSEKeepAlive(t *testing.T) {
	s := New(Config{Workers: 1, SSEKeepAlive: 20 * time.Millisecond})
	release := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		select {
		case <-release:
			return stubResult(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	status, job, raw := postJob(t, ts.URL, OptimizeRequest{Graph: `(output (relu (input "x@8 8")))`})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}

	// While the job runs, its trace is not yet available: 409.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running trace status %d, want 409", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The optimization is gated, so nothing but keepalives can arrive.
	keepalives := 0
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ":") {
			keepalives++
			if keepalives == 3 {
				close(release) // let the job finish; the stream must still end cleanly
			}
		}
		if strings.HasPrefix(line, "event: done") {
			sawDone = true
		}
	}
	if keepalives < 3 {
		t.Fatalf("saw %d keepalive comments, want >= 3", keepalives)
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}

	// Stubbed results carry no trace: 404 once done.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traceless trace status %d, want 404", resp.StatusCode)
	}
}

// TestStatsPercentiles feeds a known latency sequence through the run
// histogram and checks that Stats and the wire report its
// bucket-interpolated quantiles: zero before the first run, monotone
// afterwards, and equal to obs.Histogram.Quantile on the instrument
// GET /metrics exposes as tensat_run_seconds.
func TestStatsPercentiles(t *testing.T) {
	s := New(Config{Workers: 1})
	if st := s.Stats(); st.P50MS != 0 || st.P95MS != 0 || st.P99MS != 0 {
		t.Fatalf("percentiles before the first run = %v/%v/%v, want 0", st.P50MS, st.P95MS, st.P99MS)
	}
	for i := 1; i <= 100; i++ {
		s.metrics.inFlight.Inc()
		s.metrics.endWork(time.Duration(i)*time.Millisecond, nil)
	}
	// A failed or abandoned run observes no latency.
	s.metrics.inFlight.Inc()
	s.metrics.endWork(time.Hour, errors.New("boom"))
	s.metrics.inFlight.Inc()
	s.metrics.endWork(time.Hour, context.Canceled)

	st := s.Stats()
	// Samples 1..100ms over LatencyBuckets: 25 fall at or below 25ms and
	// 50 at or below 50ms, so rank 50 is the top of the (25ms, 50ms]
	// bucket; ranks 95 and 99 interpolate inside (50ms, 100ms], which
	// holds the other 50.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"P50", st.P50MS, 50},
		{"P95", st.P95MS, 95},
		{"P99", st.P99MS, 99},
	} {
		if math.Abs(c.got-c.want) > 1e-3 {
			t.Errorf("%s = %vms, want %vms", c.name, c.got, c.want)
		}
	}
	if st.P50MS > st.P95MS || st.P95MS > st.P99MS {
		t.Errorf("percentiles not monotone: %v/%v/%v", st.P50MS, st.P95MS, st.P99MS)
	}
	if st.Completed != 100 || st.Errors != 1 || st.InFlight != 0 {
		t.Errorf("completed/errors/in-flight = %d/%d/%d, want 100/1/0", st.Completed, st.Errors, st.InFlight)
	}

	// The wire carries the same quantiles in milliseconds.
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	var reply StatsReply
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := s.metrics.runSeconds.Quantile(0.5) * 1e3; math.Abs(reply.P50MS-want) > 1e-3 {
		t.Fatalf("wire p50_ms = %v, want %v", reply.P50MS, want)
	}
	if reply.P50MS <= 0 || reply.P95MS < reply.P50MS || reply.P99MS < reply.P95MS {
		t.Fatalf("wire percentiles: p50=%v p95=%v p99=%v", reply.P50MS, reply.P95MS, reply.P99MS)
	}
}
