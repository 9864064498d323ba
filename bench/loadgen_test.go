package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubDaemon speaks enough of the /v1 job protocol for the client: one
// request at a time, each taking `service`, like a one-worker daemon.
func stubDaemon(t *testing.T, service time.Duration, refuse bool) *daemon {
	t.Helper()
	var ids atomic.Int64
	var worker sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if refuse {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
			return
		}
		worker.Lock()
		time.Sleep(service)
		worker.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id": "j%d", "status": "running"}`, ids.Add(1))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: progress\ndata: {\"phase\":\"explore\"}\n\n: keepalive\n\n")
		fmt.Fprint(w, "event: done\ndata: {\"id\":\""+r.PathValue("id")+"\",\"status\":\"done\"}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(optimizeReply{Fingerprint: "fp", Cached: true, CacheTier: "disk", Graph: "(g)", OrigCost: 2, OptCost: 1})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &daemon{addr: strings.TrimPrefix(srv.URL, "http://")}
}

func TestClientThreeSteps(t *testing.T) {
	c := newAPIClient(stubDaemon(t, time.Millisecond, false), 1)
	defer c.close()
	rq := &request{body: []byte(`{"graph":"(g)"}`)}
	s := c.do(context.Background(), rq, time.Now())
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.jobID != "j1" || s.reply.outcome() != "disk" || s.reply.OptCost != 1 || s.replyBytes == 0 {
		t.Fatalf("sample = %+v", s)
	}
	if s.submit <= 0 || s.events <= 0 || s.rd <= 0 {
		t.Fatalf("step times %v %v %v, want all positive", s.submit, s.events, s.rd)
	}
}

func TestClientReportsRefusal(t *testing.T) {
	c := newAPIClient(stubDaemon(t, 0, true), 1)
	defer c.close()
	s := c.do(context.Background(), &request{body: []byte(`{}`)}, time.Now())
	if s.err == nil || !strings.Contains(s.err.Error(), "429") {
		t.Fatalf("err = %v, want the 429 refusal", s.err)
	}
}

// An open loop keeps to its schedule whatever the server does, and a
// request's latency runs from when it was due: behind a server that
// needs 20 ms per request, arrivals 5 ms apart queue up, and the wait
// shows in their latency although each one's own exchange stays short.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const service, gap, n = 20 * time.Millisecond, 5 * time.Millisecond, 10
	c := newAPIClient(stubDaemon(t, service, false), 4)
	defer c.close()
	rq := &request{body: []byte(`{}`)}
	var arrivals []arrival
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * gap, req: rq})
	}
	start := time.Now()
	out := openLoop(context.Background(), arrivals, 4, func(rq *request, due time.Time) sample {
		return c.do(context.Background(), rq, due)
	})
	if len(out) != n {
		t.Fatalf("%d samples, want %d", len(out), n)
	}
	for i, s := range out {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if want := start.Add(time.Duration(i) * gap); s.due.Sub(want).Abs() > 2*time.Millisecond {
			t.Errorf("arrival %d due %v after start, want %v", i, s.due.Sub(start), time.Duration(i)*gap)
		}
		if s.sent.Before(s.due) {
			t.Errorf("arrival %d sent %v before it was due", i, s.due.Sub(s.sent))
		}
	}
	// The last arrival was due at 45 ms and is served ninth in line or
	// so: about 200 ms after the start.
	last := out[n-1]
	if got := last.end.Sub(last.due); got < 100*time.Millisecond {
		t.Errorf("last latency %v: the queueing it met is missing", got)
	}
	if first := out[0].end.Sub(out[0].due); first > 80*time.Millisecond {
		t.Errorf("first latency %v, want about one service time", first)
	}
	// With one connection the wait moves into the client, and shows as
	// lateness of the send — but the latency still starts at the due time.
	one := openLoop(context.Background(), arrivals, 1, func(rq *request, due time.Time) sample {
		return c.do(context.Background(), rq, due)
	})
	lastOne := one[n-1]
	if late := lastOne.sent.Sub(lastOne.due); late < 100*time.Millisecond {
		t.Errorf("with one connection the last send was %v late, want the backlog", late)
	}
	if got := lastOne.end.Sub(lastOne.due); got < 100*time.Millisecond {
		t.Errorf("last latency %v with one connection", got)
	}
}

func TestClosedLoopWaitsForAnswers(t *testing.T) {
	c := newAPIClient(stubDaemon(t, 5*time.Millisecond, false), 2)
	defer c.close()
	var asked atomic.Int64
	out, err := closedLoop(context.Background(), 100*time.Millisecond, 2,
		func() (*request, error) { asked.Add(1); return &request{body: []byte(`{}`)}, nil },
		func(rq *request, due time.Time) sample { return c.do(context.Background(), rq, due) })
	if err != nil {
		t.Fatal(err)
	}
	// One worker at 5 ms a request answers at most 20 in 100 ms, however
	// many callers wait; an open loop would have sent far more.
	if len(out) == 0 || len(out) > 30 || int(asked.Load()) != len(out) {
		t.Fatalf("%d answers for %d requests in 100 ms", len(out), asked.Load())
	}
}
