// Package breaker is the repository's one failing-dependency guard:
// stop calling a dependency that keeps failing, probe it after a
// cooldown, and resume when the probe succeeds. internal/cluster holds
// one Breaker per peer; internal/serve holds one in front of the disk
// store (threshold 1, cooldown = the store reprobe interval).
package breaker

import (
	"sync"
	"time"
)

// State is a breaker's position. The numeric values are the
// `tensat_peer_breaker_state{peer}` gauge encoding: 0 closed
// (healthy), 1 open (dependency shunned), 2 half-open (one probe in
// flight deciding between the two).
type State int32

const (
	// Closed is the healthy state: requests flow normally.
	Closed State = 0
	// Open means the dependency accumulated threshold consecutive
	// failures; requests are refused locally until the cooldown elapses.
	Open State = 1
	// HalfOpen admits exactly one probe request after the cooldown; its
	// outcome re-closes or re-opens the breaker.
	HalfOpen State = 2
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker trips open after threshold consecutive failures, refuses
// requests for cooldown, then admits a single half-open probe whose
// outcome decides between re-closing and re-opening. All methods are
// safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	state     State
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last tripped
	probing   bool      // a half-open probe is in flight
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	onChange  func(from, to State) // called outside mu on every transition
}

// New builds a closed breaker. onChange (may be nil) fires on every
// state transition, outside the breaker's lock.
func New(threshold int, cooldown time.Duration, onChange func(from, to State)) *Breaker {
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		onChange:  onChange,
	}
}

// notify reports a state change to onChange; callers invoke it after
// releasing b.mu with the states read under it.
func (b *Breaker) notify(from, to State) {
	if from != to && b.onChange != nil {
		b.onChange(from, to)
	}
}

// TryAcquire reports whether a request to the dependency may proceed
// now. In the open state it flips to half-open once cooldown has
// elapsed and admits the caller as the probe; in half-open only the
// single probe slot is granted. Every granted acquire MUST be paired
// with a Success, Failure or Settle call.
func (b *Breaker) TryAcquire() bool {
	b.mu.Lock()
	from := b.state
	ok := false
	switch b.state {
	case Closed:
		ok = true
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = HalfOpen
			b.probing = true
			ok = true
		}
	case HalfOpen:
		if !b.probing {
			b.probing = true
			ok = true
		}
	}
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
	return ok
}

// Success records a request that the dependency answered (any response
// at all — even a cache miss — proves liveness). It re-closes a
// half-open breaker and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.failures = 0
	b.probing = false
	b.state = Closed
	b.mu.Unlock()
	b.notify(from, Closed)
}

// Failure records a transport- or I/O-level failure. A half-open probe
// failure re-opens immediately; in the closed state the breaker trips
// once the consecutive-failure streak reaches the threshold. A failure
// while already open (a request admitted just before the trip)
// refreshes the cooldown clock.
func (b *Breaker) Failure() {
	b.mu.Lock()
	from := b.state
	b.probing = false
	if b.state == Closed {
		b.failures++
	}
	if b.state != Closed || b.failures >= b.threshold {
		b.state = Open
		b.openedAt = b.now()
	}
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
}

// Settle records an admitted request's outcome: Failure when err is
// non-nil, Success otherwise.
func (b *Breaker) Settle(err error) {
	if err != nil {
		b.Failure()
	} else {
		b.Success()
	}
}

// State returns the current state for readiness reporting. An open
// breaker whose cooldown has elapsed still reads as open until a
// request actually probes it.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
