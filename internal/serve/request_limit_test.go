package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestOversizedRequestBodyRefused: both submission surfaces cap the
// body they will buffer and answer 413 request_too_large beyond it; a
// normal request on the same server still succeeds.
func TestOversizedRequestBodyRefused(t *testing.T) {
	_, ts := newTestServer(t)
	huge, err := json.Marshal(OptimizeRequest{Graph: strings.Repeat(" ", maxRequestBody)})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/jobs", "/optimize"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var reply errorReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || reply.Code != "request_too_large" {
			t.Errorf("POST %s with %d bytes: status %d code %q, want 413 request_too_large",
				path, len(huge), resp.StatusCode, reply.Code)
		}
	}
	status, _, raw := postOptimize(t, ts.URL, OptimizeRequest{Graph: `(output (relu (input "x@8 8")))`})
	if status != http.StatusOK {
		t.Fatalf("normal request after the refusals: status %d: %s", status, raw)
	}
}
