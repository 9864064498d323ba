package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// request is one optimization a client asks a daemon for.
type request struct {
	graph  genGraph
	body   []byte // the POST /v1/jobs body
	apiKey string // tenant credential, "" without tenants
}

// optimizeReply is the part of GET /v1/jobs/{id}/result the harness
// reads. It is declared here, not imported from internal/serve: the
// harness is a client and knows the wire format only.
type optimizeReply struct {
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
	Deduped     bool    `json:"deduped"`
	CacheTier   string  `json:"cache_tier"`
	Degraded    bool    `json:"degraded"`
	Graph       string  `json:"graph"`
	OrigCost    float64 `json:"orig_cost"`
	OptCost     float64 `json:"opt_cost"`
}

// outcome names how the daemon answered: from which cache tier, by a
// cold run, by a run shed to greedy extraction, or by joining another
// request's run.
func (r *optimizeReply) outcome() string {
	switch {
	case r.Degraded:
		return "shed"
	case r.Cached:
		return r.CacheTier
	case r.Deduped:
		return "deduped"
	default:
		return "cold"
	}
}

// sample is one request as the client saw it.
type sample struct {
	req                *request
	due, sent, end     time.Time
	submit, events, rd time.Duration // the three protocol steps
	jobID              string
	reply              optimizeReply
	replyBytes         int
	err                error // transport failure, refusal (429/5xx) or a malformed reply
	// traceID and eventsSpan place the request in a traced run's
	// recorder, so that the daemon's own trace can hang below it.
	traceID, eventsSpan int
}

func (s *sample) latencyMS() float64 { return float64(s.end.Sub(s.due).Nanoseconds()) / 1e6 }

// newRequest asks for g under the daemon's default options.
func newRequest(g genGraph, apiKey string) (*request, error) {
	body, err := json.Marshal(map[string]string{"graph": g.text})
	if err != nil {
		return nil, err
	}
	return &request{graph: g, body: body, apiKey: apiKey}, nil
}

// apiClient speaks tensatd's /v1 job protocol to one daemon.
type apiClient struct {
	base string
	http *http.Client
}

func newAPIClient(d *daemon, conns int) *apiClient {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &apiClient{base: "http://" + d.addr, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *apiClient) close() { c.http.CloseIdleConnections() }

func (c *apiClient) call(ctx context.Context, method, path, apiKey string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// do runs one request through the three protocol steps — POST
// /v1/jobs, GET …/events until the `done` event, GET …/result — and
// times each. due is when the request was scheduled to be sent.
func (c *apiClient) do(ctx context.Context, rq *request, due time.Time) sample {
	s := sample{req: rq, due: due, sent: time.Now()}
	s.err = c.steps(ctx, rq, &s)
	s.end = time.Now()
	return s
}

func (c *apiClient) steps(ctx context.Context, rq *request, s *sample) error {
	t0 := time.Now()
	resp, err := c.call(ctx, http.MethodPost, "/v1/jobs", rq.apiKey, rq.body)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &job); err != nil || job.ID == "" {
		return fmt.Errorf("submit: no job id in %q", data)
	}
	s.jobID = job.ID
	t1 := time.Now()
	s.submit = t1.Sub(t0)

	resp, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/events", rq.apiKey, nil)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	status, err := readUntilDone(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	if status != "done" {
		return fmt.Errorf("events: job ended %q", status)
	}
	t2 := time.Now()
	s.events = t2.Sub(t1)

	resp, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/result", rq.apiKey, nil)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &s.reply); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	s.replyBytes = len(data)
	s.rd = time.Since(t2)
	return nil
}

// readUntilDone consumes a server-sent event stream to its end and
// returns the status the terminal `done` event carries.
func readUntilDone(body io.Reader) (string, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event, status := "", ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			var job struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(v), &job); err != nil {
				return "", fmt.Errorf("done event: %w", err)
			}
			status = job.Status
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if status == "" {
		return "", fmt.Errorf("stream ended without a done event (last event %q)", event)
	}
	return status, nil
}

// arrival is one request of an open-loop schedule.
type arrival struct {
	at  time.Duration // offset from the start of the phase
	req *request
}

// openLoop sends every arrival when it is due, whatever became of the
// ones before: a feeder releases arrivals on schedule and `clients`
// connections take them in order. A request that finds every
// connection busy waits, and that wait counts: latency runs from the
// due time. It returns once every arrival has been answered.
func openLoop(ctx context.Context, arrivals []arrival, clients int, do func(*request, time.Time) sample) []sample {
	type item struct {
		i   int
		due time.Time
	}
	// Sized to the schedule so the feeder never waits for a client.
	queue := make(chan item, len(arrivals))
	out := make([]sample, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				out[it.i] = do(arrivals[it.i].req, it.due)
			}
		}()
	}
feed:
	for i, a := range arrivals {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break feed
			}
		}
		queue <- item{i, due}
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop keeps `clients` callers busy for d: each sends its next
// request only when the previous one is answered. next yields the
// requests, and is called from several goroutines.
func closedLoop(ctx context.Context, d time.Duration, clients int, next func() (*request, error), do func(*request, time.Time) sample) ([]sample, error) {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var out []sample
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				rq, err := next()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				s := do(rq, time.Now())
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}
