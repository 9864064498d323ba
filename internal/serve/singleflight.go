package serve

import (
	"context"
	"sync"

	"tensat"
)

// flightGroup deduplicates concurrent identical requests: all requests
// for one key share a single optimization run. Unlike the classic
// singleflight, the shared work runs under a reference-counted context:
// each interested request holds one reference, a request that is
// canceled drops its reference and returns immediately, and when the
// last reference is dropped the work itself is canceled. A run is thus
// never stranded doing work nobody wants, and a canceled waiter never
// blocks on its peers.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight optimization shared by its waiters.
type flightCall struct {
	ctx    context.Context // the work's context; canceled when waiters == 0
	cancel context.CancelFunc
	done   chan struct{} // closed once res/err are published
	res    *tensat.Result
	err    error
	// tensors is the leader's canonical tensor-name list, written by
	// the leader before the work starts and read by followers after
	// done closes (so followers can translate the shared result into
	// their own vocabulary).
	tensors []string
	// waiters is guarded by the owning group's mutex.
	waiters int
	// progress records the run's live snapshots; every waiter pumps
	// it into its own job log, so N deduplicated jobs see identical
	// progress.
	progress progressLog
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join registers the caller as a waiter on key's call, creating the
// call if none is in flight. The second result is true for the creator
// (the leader), which must start the work and eventually call finish.
func (g *flightGroup) join(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &flightCall{ctx: ctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	c.progress.init()
	g.calls[key] = c
	return c, true
}

// leave drops a waiter whose own request context ended. When the last
// waiter leaves, the shared work context is canceled and the key is
// freed so a subsequent identical request starts a fresh run instead of
// joining a dying one.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.waiters--; c.waiters == 0 {
		c.cancel()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
	}
}

// finish publishes the result to every waiter and frees the key. Only
// the leader's worker goroutine calls it, exactly once.
func (g *flightGroup) finish(key string, c *flightCall, res *tensat.Result, err error) {
	g.mu.Lock()
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	c.res, c.err = res, err
	close(c.done)
	c.cancel()
}
