package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestOversizedRequestBodyRefused: the submission surface caps the body
// it will buffer and answers 413 request_too_large beyond it; a normal
// request on the same server still succeeds.
func TestOversizedRequestBodyRefused(t *testing.T) {
	_, ts := newTestServer(t)
	huge, err := json.Marshal(OptimizeRequest{Graph: strings.Repeat(" ", maxRequestBody)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var reply errorReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || reply.Code != "request_too_large" {
		t.Errorf("POST /v1/jobs with %d bytes: status %d code %q, want 413 request_too_large",
			len(huge), resp.StatusCode, reply.Code)
	}
	status, _, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: `(output (relu (input "x@8 8")))`})
	if status != http.StatusOK {
		t.Fatalf("normal request after the refusal: status %d: %s", status, raw)
	}
}
