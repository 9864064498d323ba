package cluster

import "tensat/internal/breaker"

// BreakerState is a per-peer circuit breaker's position (see
// internal/breaker, which the disk store's guard shares). The numeric
// values are the `tensat_peer_breaker_state{peer}` gauge encoding.
type BreakerState = breaker.State

const (
	BreakerClosed   = breaker.Closed
	BreakerOpen     = breaker.Open
	BreakerHalfOpen = breaker.HalfOpen
)
