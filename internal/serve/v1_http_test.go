package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensat"
)

// postJob submits a job over HTTP and returns the status code and
// decoded reply.
func postJob(t *testing.T, url string, req OptimizeRequest) (int, JobReply, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var reply JobReply
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
			t.Fatalf("bad job reply %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, reply, buf.String()
}

func getJob(t *testing.T, url, id string) (int, JobReply) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply JobReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, reply
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes a /v1/jobs/{id}/events stream until the done event
// (or EOF) and returns every event.
func readSSE(t *testing.T, url, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

// distinctProgress counts distinct (phase, iteration, enodes) states.
func distinctProgress(snaps []ProgressReply) int {
	seen := map[string]bool{}
	for _, p := range snaps {
		seen[fmt.Sprintf("%s|%d|%d", p.Phase, p.Iteration, p.ENodes)] = true
	}
	return len(seen)
}

// TestV1JobLifecycleHTTP drives the whole asynchronous surface against
// a gated optimization, so every observation is deterministic: submit
// (202), polling sees two distinct progress snapshots, SSE replays
// them, the result endpoint answers 409 until done and 200 after, and
// /v1/stats reflects the job counters.
func TestV1JobLifecycleHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	step := make(chan struct{})
	release := make(chan struct{})
	res := stubResult(t)
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 1, ENodes: 10, EClasses: 5})
		select {
		case <-step:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 2, ENodes: 20, EClasses: 9})
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return res, nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	status, job, raw := postJob(t, ts.URL, OptimizeRequest{Graph: `(output (relu (input "x@8 8")))`})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	if job.ID == "" || job.Status != string(JobRunning) {
		t.Fatalf("bad submit reply: %+v", job)
	}
	if job.StatusURL != "/v1/jobs/"+job.ID {
		t.Fatalf("status url %q", job.StatusURL)
	}

	// Result before completion: 409.
	resp, err := http.Get(ts.URL + job.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result status %d, want 409", resp.StatusCode)
	}

	// Polling observes the first snapshot, then (after the gate) the
	// second — two distinct progress states seen via GET.
	var polled []ProgressReply
	waitFor(t, func() bool {
		_, r := getJob(t, ts.URL, job.ID)
		polled = append(polled, r.Progress)
		return r.Progress.Iteration == 1
	})
	close(step)
	waitFor(t, func() bool {
		_, r := getJob(t, ts.URL, job.ID)
		polled = append(polled, r.Progress)
		return r.Progress.Iteration == 2
	})
	if n := distinctProgress(polled); n < 2 {
		t.Fatalf("polling observed %d distinct snapshots, want >= 2: %+v", n, polled)
	}

	close(release)

	// SSE (subscribed after the fact) replays the full history.
	events := readSSE(t, ts.URL, job.ID)
	var stream []ProgressReply
	var done *JobReply
	for _, e := range events {
		switch e.event {
		case "progress":
			var p ProgressReply
			if err := json.Unmarshal([]byte(e.data), &p); err != nil {
				t.Fatalf("bad progress event %q: %v", e.data, err)
			}
			stream = append(stream, p)
		case "done":
			var d JobReply
			if err := json.Unmarshal([]byte(e.data), &d); err != nil {
				t.Fatalf("bad done event %q: %v", e.data, err)
			}
			done = &d
		}
	}
	if n := distinctProgress(stream); n < 2 {
		t.Fatalf("SSE observed %d distinct snapshots, want >= 2: %+v", n, stream)
	}
	if done == nil || done.Status != string(JobDone) {
		t.Fatalf("SSE done event = %+v", done)
	}

	// Result after completion: 200 with the optimization reply.
	resp, err = http.Get(ts.URL + job.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	var opt OptimizeReply
	if err := json.NewDecoder(resp.Body).Decode(&opt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if opt.OptCost != res.OptCost {
		t.Fatalf("result cost %v, want %v", opt.OptCost, res.OptCost)
	}

	var st StatsReply
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.JobsSubmitted != 1 || st.JobsDone != 1 || st.JobsRunning != 0 {
		t.Fatalf("job stats = %+v", st)
	}
}

// TestV1JobCancelHTTP cancels a running job via DELETE and checks the
// canceled status propagates to every read surface.
func TestV1JobCancelHTTP(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		o.Progress(tensat.Progress{Phase: tensat.PhaseExplore, Iteration: 1})
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	status, job, raw := postJob(t, ts.URL, OptimizeRequest{Graph: `(output (relu (input "x@8 8")))`})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	waitFor(t, func() bool { _, r := getJob(t, ts.URL, job.ID); return r.Progress.Iteration == 1 })

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}

	waitFor(t, func() bool { _, r := getJob(t, ts.URL, job.ID); return r.Status == string(JobCanceled) })
	_, r := getJob(t, ts.URL, job.ID)
	if r.Error == "" || r.Progress.Phase != string(tensat.PhaseCanceled) {
		t.Fatalf("canceled job reply = %+v", r)
	}

	// No result to fetch.
	resp, err = http.Get(ts.URL + job.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled result status %d, want 409", resp.StatusCode)
	}
	// SSE on a canceled job terminates with a canceled done event.
	events := readSSE(t, ts.URL, job.ID)
	last := events[len(events)-1]
	if last.event != "done" || !strings.Contains(last.data, string(JobCanceled)) {
		t.Fatalf("SSE final event = %+v", last)
	}
	if st := s.Stats(); st.JobsCanceled != 1 {
		t.Fatalf("jobs canceled = %d, want 1", st.JobsCanceled)
	}
}

// TestV1JobEndToEndRealPipeline runs the figure-2 graph through the
// full asynchronous stack — no stubs — and verifies the acceptance
// contract: live snapshots observed while the job runs (polled and
// streamed), and a result byte-identical to the answer for the same
// graph on a fresh service.
func TestV1JobEndToEndRealPipeline(t *testing.T) {
	_, ts := newTestServer(t)

	status, job, raw := postJob(t, ts.URL, OptimizeRequest{Graph: figure2Wire})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}

	// Poll while streaming: collect states until the job terminates.
	var polled []ProgressReply
	var final JobReply
	waitFor(t, func() bool {
		_, r := getJob(t, ts.URL, job.ID)
		polled = append(polled, r.Progress)
		final = r
		return r.Status != string(JobRunning)
	})
	if final.Status != string(JobDone) {
		t.Fatalf("job finished as %s (%s)", final.Status, final.Error)
	}
	if n := distinctProgress(polled); n < 2 {
		t.Logf("polling observed %d distinct snapshots (timing-dependent): %+v", n, polled)
	}

	// SSE after completion replays the full history: queued, explore
	// iterations, extract, done — at least two distinct states always.
	events := readSSE(t, ts.URL, job.ID)
	var stream []ProgressReply
	sawDone := false
	for _, e := range events {
		if e.event == "progress" {
			var p ProgressReply
			if err := json.Unmarshal([]byte(e.data), &p); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, p)
		} else if e.event == "done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("SSE stream ended without a done event")
	}
	if n := distinctProgress(stream); n < 2 {
		t.Fatalf("SSE replay has %d distinct snapshots, want >= 2: %+v", n, stream)
	}

	// Harvest the job's result.
	resp, err := http.Get(ts.URL + job.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	var async OptimizeReply
	if err := json.NewDecoder(resp.Body).Decode(&async); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if async.OptCost >= async.OrigCost {
		t.Fatalf("no improvement: %v -> %v", async.OrigCost, async.OptCost)
	}

	// A FRESH service (cold run, no shared cache) must produce the
	// identical answer.
	_, ts2 := newTestServer(t)
	code, fresh, raw := postOptimize(t, ts2.URL, OptimizeRequest{Graph: figure2Wire})
	if code != http.StatusOK {
		t.Fatalf("fresh-service status %d: %s", code, raw)
	}
	if async.Graph != fresh.Graph {
		t.Fatalf("result differs across services:\n%s\nvs\n%s", async.Graph, fresh.Graph)
	}
	if async.OptCost != fresh.OptCost || async.Fingerprint != fresh.Fingerprint {
		t.Fatalf("first service (%v, %s) != fresh service (%v, %s)",
			async.OptCost, async.Fingerprint, fresh.OptCost, fresh.Fingerprint)
	}

	// And on the SAME service a second job hits the cache the first
	// populated.
	code, warm, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: figure2Wire})
	if code != http.StatusOK {
		t.Fatalf("warm status %d: %s", code, raw)
	}
	if !warm.Cached {
		t.Fatal("second job missed the cache")
	}
	if warm.Graph != async.Graph {
		t.Fatal("cached graph differs from the first job's graph")
	}

	// The real run's search-phase counters surfaced in /v1/stats: the
	// compiled engine scanned and op-index-pruned classes and found
	// matches. The cached warm request must not have added to them.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.SearchClassesScanned == 0 || st.SearchClassesPruned == 0 || st.SearchMatches == 0 {
		t.Fatalf("search counters missing from stats: %+v", st)
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (cache hits must not rerun the search)", st.Completed)
	}
}

// TestV1JobElapsedIsTheJobsOwnClock: a job that queues behind another
// reads one clock from its submission on. With the one worker slot
// held for at least 100 ms by a first run, a second job's SSE stream
// never runs backwards, no entry after the queued one reads less than
// a poll taken while it queued, and its /trace wall_ms covers its
// queue wait.
func TestV1JobElapsedIsTheJobsOwnClock(t *testing.T) {
	s := New(Config{Workers: 1, Base: fastOptions()})
	optimize := s.optimize
	held, release := make(chan struct{}), make(chan struct{})
	releaseSlot := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseSlot)
	var first atomic.Bool
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		if first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
		return optimize(ctx, g, o)
	}
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)

	if status, _, raw := postJob(t, ts.URL, OptimizeRequest{Graph: figure2Wire}); status != http.StatusAccepted {
		t.Fatalf("first submit status %d: %s", status, raw)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never reached the optimizer")
	}
	const queuedWire = `
(let shared (input "x@32 128"))
(output (matmul 0 shared (weight "wa@128 128")))
(output (matmul 0 shared (weight "wb@128 128")))
`
	status, job, raw := postJob(t, ts.URL, OptimizeRequest{Graph: queuedWire})
	submitted := time.Now()
	if status != http.StatusAccepted {
		t.Fatalf("second submit status %d: %s", status, raw)
	}
	time.Sleep(100 * time.Millisecond)
	_, polled := getJob(t, ts.URL, job.ID)
	if polled.Status != string(JobRunning) || polled.Progress.Phase != string(tensat.PhaseQueued) {
		t.Fatalf("second job is %s/%s, want running/queued behind the held slot", polled.Status, polled.Progress.Phase)
	}
	queueWait := time.Since(submitted)
	releaseSlot()

	last := 0.0
	for _, e := range readSSE(t, ts.URL, job.ID) {
		if e.event != "progress" {
			continue
		}
		var p ProgressReply
		if err := json.Unmarshal([]byte(e.data), &p); err != nil {
			t.Fatal(err)
		}
		if p.ElapsedMS < last {
			t.Errorf("%s entry reads %.3f ms after %.3f ms: the stream ran backwards", p.Phase, p.ElapsedMS, last)
		}
		if p.Phase != string(tensat.PhaseQueued) && p.ElapsedMS < polled.Progress.ElapsedMS {
			t.Errorf("%s entry reads %.3f ms, less than the %.3f ms a poll read while queued",
				p.Phase, p.ElapsedMS, polled.Progress.ElapsedMS)
		}
		last = p.ElapsedMS
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TraceReply
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %v", resp.StatusCode, err)
	}
	if wait := float64(queueWait) / float64(time.Millisecond); tr.WallMS < wait {
		t.Fatalf("trace wall_ms = %.3f, less than the job's %.3f ms queue wait", tr.WallMS, wait)
	}
}

// TestV1UnknownFieldsRejected: a typo in the request body, or an
// option that no longer exists, errors instead of silently running
// with defaults, and the error names the field.
func TestV1UnknownFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for field, body := range map[string]string{
		"worker":  `{"graph": "(output (relu (input \"x@8 8\")))", "options": {"worker": 4}}`,
		"workers": `{"graph": "(output (relu (input \"x@8 8\")))", "options": {"workers": 4}}`,
		"graf":    `{"graf": "(output (relu (input \"x@8 8\")))"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorReply
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v, %v)", field, resp.StatusCode, e, err)
		}
		if !strings.Contains(e.Error, strconv.Quote(field)) {
			t.Errorf("error does not name the bad field %q: %s", field, e.Error)
		}
	}
}

// TestV1JobNotFound: unknown ids are 404 on every job endpoint.
func TestV1JobNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	for _, ep := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/events"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestV1Version reports the build and runtime identification.
func TestV1Version(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v VersionReply
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Module == "" || v.Version == "" || !strings.HasPrefix(v.GoVersion, "go") || v.GOMAXPROCS < 1 {
		t.Fatalf("version reply = %+v", v)
	}
	// The revision is the VCS commit when stamped, "unknown" otherwise
	// (test binaries are built without VCS stamping) — never empty.
	if v.Revision == "" {
		t.Fatalf("version reply has empty revision: %+v", v)
	}
}

// TestV1JobStoreBackpressure: a full store of running jobs answers 429.
func TestV1JobStoreBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 1})
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
	t.Cleanup(func() { close(release) })

	status, job, raw := postJob(t, ts.URL, OptimizeRequest{Graph: `(output (relu (input "x@8 8")))`})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	status, _, raw = postJob(t, ts.URL, OptimizeRequest{Graph: `(output (tanh (input "x@8 8")))`})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit status %d, want 429: %s", status, raw)
	}
	if _, r := getJob(t, ts.URL, job.ID); r.Status != string(JobRunning) {
		t.Fatalf("first job status %s, want still running", r.Status)
	}
}
