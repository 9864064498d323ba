package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tensat"
)

// FuzzSubmitJob sends arbitrary bytes as a POST /v1/jobs body through
// NewHandler, with an optimizer stub that returns the graph it is
// given. The handler never panics and never answers 5xx; a job it
// accepts with 202 ends done, unless the body set a timeout_ms that
// can cancel it, and a done job's /result is 200 with a JSON body.
// Seeds: a valid body, malformed JSON, an unknown field, an unknown
// extractor and a graph whose tensors exceed 2^53 elements.
func FuzzSubmitJob(f *testing.F) {
	for _, body := range []string{
		`{"graph": "(output (relu (input \"x@4 4\")))", "options": {"extractor": "greedy"}}`,
		`{"graph": `,
		`{"graph": "(output (relu (input \"x@4 4\")))", "worker": 1}`,
		`{"graph": "(output (relu (input \"x@4 4\")))", "options": {"extractor": "x"}}`,
		`{"graph": "(output (relu (ewadd (input \"x@3037000500 3037000500\") (input \"y@3037000500 3037000500\"))))"}`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1, Base: fastOptions()})
	s.optimize = func(ctx context.Context, g *tensat.Graph, o tensat.Options) (*tensat.Result, error) {
		return &tensat.Result{Graph: g}, nil
	}
	h := NewHandler(s)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := serve(http.MethodPost, "/v1/jobs", body)
		if w.Code >= 500 {
			t.Fatalf("POST /v1/jobs answered %d: %s", w.Code, w.Body)
		}
		if w.Code != http.StatusAccepted {
			return
		}
		var reply JobReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("202 body %q: %v", w.Body, err)
		}
		job, ok := s.Job(reply.ID)
		if !ok {
			t.Fatalf("accepted job %s is not tracked", reply.ID)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s did not finish", reply.ID)
		}
		var req OptimizeRequest
		_ = json.Unmarshal(body, &req) // the handler accepted it, so it decodes
		status, _ := job.Status()
		if status != JobDone {
			if req.TimeoutMS > 0 && status == JobCanceled {
				return
			}
			t.Fatalf("job %s ended %s", reply.ID, status)
		}
		w = serve(http.MethodGet, reply.ResultURL, nil)
		if w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
			t.Fatalf("GET %s answered %d: %s", reply.ResultURL, w.Code, w.Body)
		}
	})
}
