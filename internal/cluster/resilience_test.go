package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensat/internal/breaker"
)

// transitions records breaker state changes for assertions.
type transitions struct {
	mu     sync.Mutex
	states []breaker.State
}

func (tr *transitions) observer() Observer {
	return Observer{
		BreakerChange: func(peer string, st breaker.State) {
			tr.mu.Lock()
			tr.states = append(tr.states, st)
			tr.mu.Unlock()
		},
	}
}

func (tr *transitions) snapshot() []breaker.State {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]breaker.State(nil), tr.states...)
}

func TestRingSuccessors(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"}, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q, 3) = %v", key, succ)
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("Successors(%q)[0] = %s, Owner = %s", key, succ[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("Successors(%q) repeats %s: %v", key, n, succ)
			}
			seen[n] = true
		}
	}
	// k beyond the member count clamps.
	if got := r.Successors("k", 10); len(got) != 4 {
		t.Fatalf("clamped successors = %v", got)
	}
	if got := NewRing(nil, 0).Successors("k", 2); got != nil {
		t.Fatalf("empty ring successors = %v", got)
	}
}

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte("record"))
	}))
	defer srv.Close()

	tr := &transitions{}
	c, err := New(Config{
		Self:             "self",
		Peers:            []string{"self", "peer"},
		Secret:           testSecret,
		BaseURL:          func(string) string { return srv.URL },
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		RetryAttempts:    -1, // no retry: one breaker failure per Fetch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetObserver(tr.observer())
	key := remoteKey(t, c)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Fetch(context.Background(), key); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("fetch %d against failing peer: err = %v", i, err)
		}
	}
	if st := c.BreakerStates()["peer"]; st != breaker.Open {
		t.Fatalf("breaker after 3 failures = %v, want open", st)
	}
	// While open, the walk falls over to the next successor — self, on
	// a two-node ring — so Fetch reports that no live peer exists,
	// without touching the network. It is not a miss: no peer answered.
	before := hits.Load()
	if _, err := c.Fetch(context.Background(), key); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("fetch with open breaker: err = %v, want ErrPeerDown", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker still let a request through")
	}

	// After the cooldown, the next fetch is admitted as the half-open
	// probe; the peer is healthy again, so the breaker re-closes.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	got, err := c.Fetch(context.Background(), key)
	if err != nil || string(got) != "record" {
		t.Fatalf("probe fetch = %q, %v", got, err)
	}
	if st := c.BreakerStates()["peer"]; st != breaker.Closed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
	want := []breaker.State{breaker.Open, breaker.HalfOpen, breaker.Closed}
	if got := tr.snapshot(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("breaker transitions = %v, want %v", got, want)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := New(Config{
		Self:             "self",
		Peers:            []string{"self", "peer"},
		Secret:           testSecret,
		BaseURL:          func(string) string { return srv.URL },
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
		RetryAttempts:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := remoteKey(t, c)
	if _, err := c.Fetch(context.Background(), key); err == nil {
		t.Fatal("fetch against failing peer succeeded")
	}
	if st := c.BreakerStates()["peer"]; st != breaker.Open {
		t.Fatalf("breaker = %v, want open", st)
	}
	time.Sleep(40 * time.Millisecond)
	// The probe fails: straight back to open, no second chance.
	if _, err := c.Fetch(context.Background(), key); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("probe fetch: err = %v, want transport error", err)
	}
	if st := c.BreakerStates()["peer"]; st != breaker.Open {
		t.Fatalf("breaker after failed probe = %v, want open", st)
	}
}

func TestFetchRetriesTransientFailure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte("record"))
	}))
	defer srv.Close()
	var retries atomic.Int64
	c, err := New(Config{
		Self:             "self",
		Peers:            []string{"self", "peer"},
		Secret:           testSecret,
		BaseURL:          func(string) string { return srv.URL },
		BreakerThreshold: 10,
		RetryAttempts:    2,
		retryBaseDelay:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetObserver(Observer{FetchRetry: func(string) { retries.Add(1) }})
	key := remoteKey(t, c)
	got, err := c.Fetch(context.Background(), key)
	if err != nil || string(got) != "record" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("peer saw %d requests, want 3", calls.Load())
	}
	if retries.Load() != 2 {
		t.Fatalf("FetchRetry fired %d times, want 2", retries.Load())
	}
}

func TestFetchDoesNotRetryCleanMiss(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer srv.Close()
	c, err := New(Config{
		Self:           "self",
		Peers:          []string{"self", "peer"},
		Secret:         testSecret,
		BaseURL:        func(string) string { return srv.URL },
		RetryAttempts:  3,
		retryBaseDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := remoteKey(t, c)
	if _, err := c.Fetch(context.Background(), key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("clean miss was retried: %d requests", calls.Load())
	}
	if st := c.BreakerStates()["peer"]; st != breaker.Closed {
		t.Fatalf("clean miss moved the breaker to %v", st)
	}
}

// TestHealthGatedFallover drives a three-node view: the primary owner
// dies, the key falls over to the next successor, and once the primary
// recovers the key migrates back.
func TestHealthGatedFallover(t *testing.T) {
	var p1Failing atomic.Bool
	p1Failing.Store(true)
	p1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p1Failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte("from-p1"))
	}))
	defer p1.Close()
	p2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("from-p2"))
	}))
	defer p2.Close()

	urls := map[string]string{"p1": p1.URL, "p2": p2.URL}
	c, err := New(Config{
		Self:             "self",
		Peers:            []string{"self", "p1", "p2"},
		Secret:           testSecret,
		BaseURL:          func(node string) string { return urls[node] },
		BreakerThreshold: 1,
		BreakerCooldown:  40 * time.Millisecond,
		RetryAttempts:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key whose successor walk starts [p1, p2]: fallover has
	// somewhere other than self to land.
	var key string
	for i := 0; i < 5000 && key == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		succ := c.ring.Successors(k, 2)
		if len(succ) == 2 && succ[0] == "p1" && succ[1] == "p2" {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key with successor list [p1, p2] found")
	}

	// First fetch hits the dead primary and trips its breaker.
	if _, err := c.Fetch(context.Background(), key); err == nil {
		t.Fatal("fetch against dead primary succeeded")
	}
	// Fallover: the very next fetch lands on p2.
	got, err := c.Fetch(context.Background(), key)
	if err != nil || string(got) != "from-p2" {
		t.Fatalf("fallover fetch = %q, %v, want from-p2", got, err)
	}
	// Pushes follow the same health-gated route.
	if err := c.Push(context.Background(), key, []byte("x")); err != nil {
		t.Fatalf("fallover push: %v", err)
	}

	// Primary recovers; after the cooldown the probe succeeds and the
	// key migrates back.
	p1Failing.Store(false)
	time.Sleep(50 * time.Millisecond)
	got, err = c.Fetch(context.Background(), key)
	if err != nil || string(got) != "from-p1" {
		t.Fatalf("post-recovery fetch = %q, %v, want from-p1", got, err)
	}
}

func TestMayOwn(t *testing.T) {
	c, err := New(Config{Self: "a", Peers: []string{"a", "b", "c", "d"}, Secret: testSecret})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owned, mayOwn := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		_, local := c.Owner(key)
		if local {
			owned++
			if !c.MayOwn(key) {
				t.Fatalf("primary owner fails MayOwn for %q", key)
			}
		}
		if c.MayOwn(key) {
			mayOwn++
		}
	}
	// MayOwn admits the primary plus the first fallback, so it must be
	// a strict superset of ownership but nowhere near everything.
	if mayOwn <= owned || mayOwn >= 1800 {
		t.Fatalf("MayOwn count %d vs owned %d — fallover window wrong", mayOwn, owned)
	}
}

func TestPushQueueBoundedAndDrains(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var puts sync.Map
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		key := strings.TrimPrefix(r.URL.Path, PeerPath)
		puts.Store(key, true)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	c, err := New(Config{
		Self:         "self",
		Peers:        []string{"self", "peer"},
		Secret:       testSecret,
		BaseURL:      func(string) string { return srv.URL },
		pushQueueLen: 2,
		pushWorkers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	c.SetObserver(Observer{PushDone: func(err error) {
		if err == nil {
			done.Add(1)
		}
	}})
	// Each queued key must genuinely route to the peer, or pushOne
	// short-circuits locally and never reaches the stalling server.
	keys := remoteKeys(t, c, 4)

	// First push is grabbed by the single worker and stalls in-flight.
	if !c.EnqueuePush(keys[0], []byte("p")) {
		t.Fatal("enqueue 0 refused")
	}
	<-entered
	// Two more fill the queue; the fourth must be dropped.
	if !c.EnqueuePush(keys[1], []byte("p")) || !c.EnqueuePush(keys[2], []byte("p")) {
		t.Fatal("queue refused pushes below its bound")
	}
	if c.EnqueuePush(keys[3], []byte("p")) {
		t.Fatal("queue accepted a push beyond its bound")
	}

	close(release)
	c.Close() // drains the backlog
	for i := 0; i < 3; i++ {
		if _, ok := puts.Load(keys[i]); !ok {
			t.Fatalf("queued push %d (%s) never delivered", i, keys[i])
		}
	}
	if _, ok := puts.Load(keys[3]); ok {
		t.Fatal("dropped push was delivered")
	}
	if done.Load() != 3 {
		t.Fatalf("PushDone(nil) fired %d times, want 3", done.Load())
	}
	if c.EnqueuePush(keys[0], []byte("p")) {
		t.Fatal("EnqueuePush accepted work after Close")
	}
}

// remoteKeys finds n distinct keys all owned by "peer" on the
// self/peer ring.
func remoteKeys(t *testing.T, c *Client, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 10000; i++ {
		key := fmt.Sprintf("remote-key-%d", i)
		if owner, local := c.Owner(key); !local && owner == "peer" {
			out = append(out, key)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d peer-owned keys, want %d", len(out), n)
	}
	return out
}

func TestPushWorkerRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	c, err := New(Config{
		Self:             "self",
		Peers:            []string{"self", "peer"},
		Secret:           testSecret,
		BaseURL:          func(string) string { return srv.URL },
		BreakerThreshold: 10,
		RetryAttempts:    2,
		retryBaseDelay:   time.Millisecond,
		pushWorkers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	c.SetObserver(Observer{PushDone: func(err error) { result <- err }})
	key := remoteKey(t, c)
	if !c.EnqueuePush(key, []byte("p")) {
		t.Fatal("enqueue refused")
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("push after retry: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push never completed")
	}
	if calls.Load() != 2 {
		t.Fatalf("peer saw %d push attempts, want 2", calls.Load())
	}
	c.Close()
}

// TestPushRejectionIsNotRetried pins the outcome rule for pushes: a
// live peer that rejects a record (here 421 not_owner) answered, so
// the push is tried once, still reaches PushDone with its error, and
// leaves the peer's breaker closed for the fetches that follow.
func TestPushRejectionIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusMisdirectedRequest)
	}))
	defer srv.Close()
	c, err := New(Config{
		Self:             "self",
		Peers:            []string{"self", "peer"},
		Secret:           testSecret,
		BaseURL:          func(string) string { return srv.URL },
		BreakerThreshold: 3,
		RetryAttempts:    2,
		retryBaseDelay:   time.Millisecond,
		pushWorkers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	result := make(chan error, 1)
	c.SetObserver(Observer{PushDone: func(err error) { result <- err }})
	if !c.EnqueuePush(remoteKey(t, c), []byte("p")) {
		t.Fatal("enqueue refused")
	}
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("rejected push reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push never completed")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("peer saw %d push attempts, want 1", n)
	}
	if st := c.BreakerStates()["peer"]; st != breaker.Closed {
		t.Fatalf("breaker %v after a rejected push, want closed", st)
	}
}
