package cluster

import "tensat/internal/breaker"

// BreakerState is a per-peer circuit breaker's position (see
// internal/breaker, which the disk store's guard shares). The numeric
// values are the `tensat_peer_breaker_state{peer}` gauge encoding.
type BreakerState = breaker.State

// BreakerClosed is the state every peer's breaker starts in.
const BreakerClosed = breaker.Closed
