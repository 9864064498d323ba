package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"tensat"
	"tensat/internal/tenant"
)

// outcomeTenants declares one tenant at the no-shed floor, one below it
// and one without limits. The first two hold one token, which refills
// in 1,000 s, so once it is spent they are told to retry in 1,000 s;
// each may run one job at full quality and, below the floor, one shed
// job.
const outcomeTenants = `{"tenants": [
	{"name": "prod", "key": "prod-key-1", "priority": 100,
	 "rate_rps": 0.001, "burst": 1, "max_concurrent": 1},
	{"name": "batch", "key": "batch-key-1", "priority": 1,
	 "rate_rps": 0.001, "burst": 1, "max_concurrent": 1},
	{"name": "open", "key": "open-key-1"}
]}`

// elapsedField and the job id are the only bytes of a job's bodies
// that differ between two runs of this test, and retryFraction the
// only bytes of a 429's: the time left until the next token, below a
// second.
var (
	elapsedField  = regexp.MustCompile(`"elapsed_ms":[-+.e0-9]+`)
	retryFraction = regexp.MustCompile(`([0-9])\.[0-9]+s\)`)
)

// TestOutcomeSurfaceGolden pins the bytes a client sees of a run's
// outcome and of its admission: the 400 bodies for an unknown
// extractor and cycle filter; GET /v1/jobs/{id} and the /events stream
// of a cold run, of a memory hit and of a canceled deduplicated
// follower; and the 429 body and Retry-After of a tenant over quota,
// at the no-shed floor with a shed slot free, and below it with none.
func TestOutcomeSurfaceGolden(t *testing.T) {
	const path = "testdata/outcome_golden.json"
	reg, err := tenant.Parse([]byte(outcomeTenants))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, Tenants: reg})
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		if calls.Add(1) > 1 { // the first run answers at once
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &tensat.Result{Graph: testGraph(t, 0), OrigCost: 2, OptCost: 1,
			Iterations: 3, ENodes: 40, EClasses: 17}, nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	type answer struct {
		Status     int
		RetryAfter string `json:",omitempty"`
		Body       string
	}
	do := func(method, path, key, body string) answer {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Retry-After"), retryFraction.ReplaceAllString(string(b), "${1}s)")}
	}
	graphText := func(seed int) string {
		text, err := testGraph(t, seed).MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}
	submit := func(seed int, key string, ro RequestOptions) (string, answer) {
		t.Helper()
		body, err := json.Marshal(OptimizeRequest{Graph: graphText(seed), Options: ro})
		if err != nil {
			t.Fatal(err)
		}
		a := do(http.MethodPost, "/v1/jobs", key, string(body))
		var reply JobReply
		_ = json.Unmarshal([]byte(a.Body), &reply)
		return reply.ID, a
	}
	// finished reads a job's events (which end once it is done) and then
	// its status, with the id and the elapsed times written alike.
	finished := func(id, key string) [2]string {
		t.Helper()
		events := do(http.MethodGet, "/v1/jobs/"+id+"/events", key, "").Body
		status := do(http.MethodGet, "/v1/jobs/"+id, key, "").Body
		norm := func(s string) string {
			return elapsedField.ReplaceAllString(strings.ReplaceAll(s, id, "ID"), `"elapsed_ms":0`)
		}
		return [2]string{norm(status), norm(events)}
	}

	_, badExtractor := submit(1, "open-key-1", RequestOptions{Extractor: "gredy"})
	_, badFilter := submit(1, "open-key-1", RequestOptions{CycleFilter: "vanila"})

	// A cold run answers at once and its twin is a memory hit.
	coldID, _ := submit(1, "open-key-1", RequestOptions{})
	cold := finished(coldID, "open-key-1")
	hitID, _ := submit(1, "open-key-1", RequestOptions{})
	hit := finished(hitID, "open-key-1")

	// prod's first run holds its token and slot; a second run of the
	// same graph finds neither and answers 429 with a shed slot free.
	leaderID, _ := submit(2, "prod-key-1", RequestOptions{})
	waitFor(t, func() bool { return calls.Load() == 2 })
	_, floor429 := submit(2, "prod-key-1", RequestOptions{})

	// A job of the same graph submitted outside admission control
	// follows prod's run, and is canceled while it waits.
	follower, err := s.SubmitJobAs(testGraph(t, 2), RequestOptions{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Deduped == 1 })
	do(http.MethodDelete, "/v1/jobs/"+follower.ID(), "prod-key-1", "")
	canceled := finished(follower.ID(), "prod-key-1")

	// batch's first run holds its token and slot, its second is shed
	// and holds the one shed slot, and its third finds none free. The
	// three follow each other at once, so the bucket has refilled less
	// than a second's worth when the third is told when to retry.
	heldID, _ := submit(3, "batch-key-1", RequestOptions{})
	shedID, _ := submit(4, "batch-key-1", RequestOptions{})
	_, shed429 := submit(5, "batch-key-1", RequestOptions{})
	if leaderID == "" || heldID == "" || shedID == "" {
		t.Fatal("a run that must hold a slot was refused")
	}

	got, err := json.MarshalIndent(struct {
		UnknownExtractor, UnknownCycleFilter answer
		ColdStatusAndEvents                  [2]string
		MemoryHitStatusAndEvents             [2]string
		CanceledFollowerStatusAndEvents      [2]string
		FloorTenantShedSlotFree              answer
		BelowFloorTenantNoShedSlotFree       answer
	}{badExtractor, badFilter, cold, hit, canceled, floor429, shed429}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("outcome surface changed:\n got %s\nwant %s", got, want)
	}
}
