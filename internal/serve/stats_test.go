package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensat"
	"tensat/internal/cachestore"
	"tensat/internal/fault"
	"tensat/internal/tenant"
)

// statsSeries maps every counter and gauge key of GET /v1/stats to the
// /metrics series it is a read of. A map-valued key ("profiles") names
// a labeled family whose label values, joined with "/", are the map's
// keys. TestStatsMatchesMetrics fails on a stats key without a row, so
// a new counter cannot be added to one surface only.
var statsSeries = map[string]string{
	"hits":          "tensat_cache_hits_total",
	"misses":        "tensat_cache_misses_total",
	"deduped":       "tensat_cache_dedup_total",
	"completed":     "tensat_runs_completed_total",
	"errors":        "tensat_run_errors_total",
	"canceled":      "tensat_requests_canceled_total",
	"in_flight":     "tensat_optimizations_inflight",
	"cache_entries": "tensat_cache_entries",
	"cache_bytes":   "tensat_cache_bytes",
	"queue_waiting": "tensat_queue_waiting",
	"workers":       "tensat_workers",

	"jobs_submitted": "tensat_jobs_submitted_total",
	"jobs_running":   "tensat_jobs_running",
	"jobs_done":      "tensat_jobs_done_total",
	"jobs_canceled":  "tensat_jobs_canceled_total",
	"jobs_failed":    "tensat_jobs_failed_total",
	"profiles":       "tensat_requests_total",

	"search_classes_scanned": "tensat_search_classes_scanned_total",
	"search_classes_pruned":  "tensat_search_classes_pruned_total",
	"search_dirty_searched":  "tensat_search_dirty_researched_total",
	"search_clean_reused":    "tensat_search_clean_reused_total",
	"search_matches":         "tensat_search_matches_total",

	"ilp_presolve_fixed":   "tensat_ilp_presolve_fixed_total",
	"ilp_presolve_dropped": "tensat_ilp_presolve_dropped_total",
	"ilp_presolve_removed": "tensat_ilp_presolve_constraints_removed_total",
	"ilp_incumbents":       "tensat_ilp_incumbents_total",
	"ilp_solves":           "tensat_ilp_solves_total",

	"store_hits":     "tensat_store_hits_total",
	"store_misses":   "tensat_store_misses_total",
	"store_errors":   "tensat_store_errors_total",
	"store_puts":     "tensat_store_puts_total",
	"store_entries":  "tensat_store_entries",
	"store_bytes":    "tensat_store_bytes",
	"store_degraded": "tensat_store_degraded",

	"peer_hits":         "tensat_peer_hits_total",
	"peer_misses":       "tensat_peer_misses_total",
	"peer_errors":       "tensat_peer_errors_total",
	"peer_puts":         "tensat_peer_puts_total",
	"peer_retries":      "tensat_peer_retries_total",
	"peer_push_dropped": "tensat_peer_push_dropped_total",

	"panics":          "tensat_panics_total",
	"draining":        "tensat_draining",
	"shed_total":      "tensat_shed_total",
	"tenant_requests": "tensat_tenant_requests_total",
	"tenant_rejected": "tensat_tenant_rejected_total",
}

// statsDerived are the /v1/stats keys that are not one series: the
// latency quantiles are computed from tensat_run_seconds' buckets
// (TestStatsPercentiles), and peer_breakers spells the
// tensat_peer_breaker_state gauge values as words.
var statsDerived = map[string]bool{"p50_ms": true, "p95_ms": true, "p99_ms": true, "peer_breakers": true}

// TestStatsMatchesMetrics drives a memory hit, a store hit, misses, a
// dedup, a shed run, a tenant rejection, a recovered panic and a store
// error through the HTTP handler, then asserts that every key of GET
// /v1/stats equals the /metrics series statsSeries maps it to.
func TestStatsMatchesMetrics(t *testing.T) {
	defer fault.Reset()
	st, err := cachestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res := stubResult(t)
	stub := func(context.Context, *tensat.Graph, tensat.Options) (*tensat.Result, error) { return res, nil }

	// A first service leaves graph 2 on disk, so the one under test —
	// same store, empty LRU — answers it as a store hit.
	warm := New(Config{Workers: 1, Store: st})
	warm.optimize = stub
	if _, err := warm.Optimize(context.Background(), testGraph(t, 2), RequestOptions{}); err != nil {
		t.Fatal(err)
	}

	reg, err := tenant.Parse([]byte(shedTenants))
	if err != nil {
		t.Fatal(err)
	}
	// The long reprobe keeps the store degraded once the injected write
	// failure opens its breaker.
	s := New(Config{Workers: 4, Store: st, StoreReprobe: time.Hour, Tenants: reg})
	var started atomic.Int64
	var panicNext, hold atomic.Bool
	release := make(chan struct{})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		started.Add(1)
		if panicNext.CompareAndSwap(true, false) {
			panic("injected")
		}
		if hold.Load() {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return res, nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	do := func(method, path, key string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	submit := func(key string, seed int) (int, string) {
		t.Helper()
		body, err := json.Marshal(OptimizeRequest{Graph: graphText(t, testGraph(t, seed))})
		if err != nil {
			t.Fatal(err)
		}
		status, raw := do(http.MethodPost, "/v1/jobs", key, body)
		var reply JobReply
		if status == http.StatusAccepted {
			if err := json.Unmarshal(raw, &reply); err != nil {
				t.Fatal(err)
			}
		}
		return status, reply.ID
	}
	finish := func(key, id string) JobReply {
		t.Helper()
		var reply JobReply
		waitFor(t, func() bool {
			_, raw := do(http.MethodGet, "/v1/jobs/"+id, key, nil)
			if err := json.Unmarshal(raw, &reply); err != nil {
				t.Fatal(err)
			}
			return reply.Status != string(JobRunning)
		})
		return reply
	}
	run := func(key string, seed int) JobReply {
		t.Helper()
		status, id := submit(key, seed)
		if status != http.StatusAccepted {
			t.Fatalf("submit graph %d: status %d", seed, status)
		}
		return finish(key, id)
	}
	const batch, prod = "batch-key-1", "prod-key-1"

	run(batch, 1) // miss, cold run, store put
	run(batch, 1) // memory hit
	run(batch, 2) // store hit

	// Hold the runs: batch's graph 3 occupies its one concurrency slot,
	// prod's identical request joins that flight (dedup), batch's graph 4
	// is shed to greedy, and batch's graph 5 is rejected.
	hold.Store(true)
	_, lead := submit(batch, 3)
	waitFor(t, func() bool { return started.Load() == 2 })
	_, follow := submit(prod, 3)
	waitFor(t, func() bool { return s.Stats().Deduped == 1 })
	_, shed := submit(batch, 4)
	waitFor(t, func() bool { return started.Load() == 3 })
	if status, _ := submit(batch, 5); status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", status)
	}
	hold.Store(false)
	close(release)
	finish(batch, lead)
	finish(prod, follow)
	finish(batch, shed)

	panicNext.Store(true)
	if got := run(batch, 6); got.Status != string(JobFailed) {
		t.Fatalf("panicking job status %q, want failed", got.Status)
	}

	fault.Arm("store.put", fault.Action{Mode: fault.ModeENOSPC, Count: 1})
	run(batch, 7) // store write error: the breaker opens

	var stats map[string]json.RawMessage
	_, raw := do(http.MethodGet, "/v1/stats", batch, nil)
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	fams := scrapeMetrics(t, ts.URL)

	for key, raw := range stats {
		series, ok := statsSeries[key]
		if !ok {
			if !statsDerived[key] {
				t.Errorf("/v1/stats key %q has no row in statsSeries", key)
			}
			continue
		}
		fam := fams[series]
		if fam == nil {
			t.Errorf("%s: /metrics has no family %s", key, series)
			continue
		}
		var want any
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		switch want := want.(type) {
		case float64:
			if got := fam.samples[series]; got != want {
				t.Errorf("%s = %v, but %s = %v", key, want, series, got)
			}
		case bool:
			if got := fam.samples[series]; (got == 1) != want || got > 1 {
				t.Errorf("%s = %v, but %s = %v", key, want, series, got)
			}
		case map[string]any:
			got := map[string]any{}
			for sample, v := range fam.samples {
				var values []string
				for _, m := range labelPairRe.FindAllStringSubmatch(sample, -1) {
					values = append(values, m[2])
				}
				got[strings.Join(values, "/")] = v
			}
			if a, b := renderMap(want), renderMap(got); a != b {
				t.Errorf("%s = %s, but %s = %s", key, a, series, b)
			}
		default:
			t.Errorf("%s: unexpected JSON type %T", key, want)
		}
	}
	for key, series := range statsSeries {
		// Only a labeled family without children may be absent (omitempty).
		if _, ok := stats[key]; !ok && (fams[series] == nil || len(fams[series].samples) > 0) {
			t.Errorf("statsSeries row %q (%s) is not a /v1/stats key", key, series)
		}
	}

	// The scenarios above must each have left their mark, or the
	// equalities prove nothing.
	var reply StatsReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]uint64{
		"hits": reply.Hits, "store_hits": reply.StoreHits, "misses": reply.Misses,
		"deduped": reply.Deduped, "shed_total": reply.ShedTotal, "store_errors": reply.StoreErrors,
		"store_puts": reply.StorePuts, "jobs_failed": reply.JobsFailed,
		"tenant_rejected[batch]": reply.TenantRejected["batch"], "panics[worker]": reply.Panics["worker"],
	} {
		if n == 0 {
			t.Errorf("%s = 0: scenario not driven", name)
		}
	}
	if !reply.StoreDegraded {
		t.Error("store_degraded = false after the injected write failure")
	}
}

// renderMap prints a decoded JSON object in key order.
func renderMap(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		out, _ := json.Marshal(m[k])
		b.Write(out)
		b.WriteByte(' ')
	}
	return b.String()
}
