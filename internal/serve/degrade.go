package serve

import (
	"context"
	"errors"
	"sync"
)

// ErrDraining is returned by the submission surfaces once BeginDrain
// has been called: the daemon is shutting down, finishing the work it
// holds but accepting no more. Transports answer 503 with Retry-After
// so load balancers move on to a healthy node.
var ErrDraining = errors.New("serve: draining for shutdown")

// drainState coordinates graceful shutdown: begin flips the service
// into draining mode (new submissions fail with ErrDraining, /readyz
// answers 503, SSE streams terminate), and wait blocks until every
// tracked asynchronous job has finished or the caller's context
// expires. track/done bracket each job goroutine; track is refused
// once draining, and both it and begin hold the same lock, so the
// WaitGroup can never be incremented after wait has started.
type drainState struct {
	mu       sync.Mutex
	draining bool
	ch       chan struct{} // closed by begin
	wg       sync.WaitGroup
}

func newDrainState() *drainState {
	return &drainState{ch: make(chan struct{})}
}

// begin flips into draining mode; idempotent.
func (d *drainState) begin() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return
	}
	d.draining = true
	close(d.ch)
}

// active reports whether drain has begun.
func (d *drainState) active() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// channel returns the channel closed when drain begins, for select
// loops (the SSE handler) that must react mid-stream.
func (d *drainState) channel() <-chan struct{} { return d.ch }

// track registers one unit of in-flight work; it reports false (and
// registers nothing) once draining has begun.
func (d *drainState) track() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return false
	}
	d.wg.Add(1)
	return true
}

// done releases one tracked unit.
func (d *drainState) done() { d.wg.Done() }

// wait blocks until every tracked unit finishes or ctx expires.
func (d *drainState) wait(ctx context.Context) error {
	finished := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BeginDrain flips the service into draining mode: running work
// continues, but new synchronous requests and job submissions fail
// with ErrDraining, /readyz answers 503, and every open SSE stream
// receives a terminal "draining" event. Idempotent.
func (s *Service) BeginDrain() {
	s.drain.begin()
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.drain.active() }

// Drain begins draining (if not already begun) and blocks until every
// tracked asynchronous job has finished or ctx expires. The caller —
// the daemon's SIGTERM path — bounds it with its -drain-timeout.
func (s *Service) Drain(ctx context.Context) error {
	s.drain.begin()
	return s.drain.wait(ctx)
}
