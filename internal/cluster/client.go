package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"tensat/internal/breaker"
	"tensat/internal/fault"
)

// Headers on the internal peer surface. Every peer request carries
// AuthHeader with the fleet's shared secret — the peer endpoints share
// the client listener, so without a credential any network client
// could read cached results (bypassing tenant auth) or poison the
// fleet's warm set with crafted records; receivers verify it in
// constant time and answer 401 otherwise. Every request also carries
// OriginHeader naming the sending node; a receiving node that finds
// its own name there (a peer list pointing a node at itself, or a
// proxy bouncing the request back) answers 508 instead of serving.
// The peer cache endpoints additionally never fan out — they answer
// strictly from local tiers — so routing loops are impossible by
// construction; the header catches the misconfiguration early and
// loudly.
const (
	// AuthHeader carries the fleet's shared cluster secret.
	AuthHeader = "X-Tensat-Peer-Auth"
	// OriginHeader names the node a peer request originated from.
	OriginHeader = "X-Tensat-Peer-Origin"
	// PeerPath is the internal cache surface prefix; the cache key is
	// the final path element.
	PeerPath = "/v1/peer/cache/"
)

// MinSecretLen is the shortest accepted cluster secret. The secret is
// the only thing between the open network and the fleet's cache
// surface, so a trivially guessable one is a configuration error.
const MinSecretLen = 16

// ErrLoop reports a peer request that arrived back at its origin.
var ErrLoop = errors.New("cluster: peer request looped back to origin")

// ErrNotFound reports a clean peer-side cache miss (HTTP 404).
var ErrNotFound = errors.New("cluster: peer cache miss")

// ErrPeerDown reports that no live peer was available for the key:
// every candidate's circuit breaker refused the request. Callers treat
// it exactly like a miss — compute locally.
var ErrPeerDown = errors.New("cluster: no live peer for key")

// DefaultTimeout bounds one peer cache round trip. Peer hits must be
// much cheaper than recomputing; a slow peer is treated as a miss.
const DefaultTimeout = 2 * time.Second

// Resilience defaults. The breaker trips after DefaultBreakerThreshold
// consecutive transport failures and shuns the peer for
// DefaultBreakerCooldown before admitting a half-open probe; an
// idempotent fetch retries DefaultRetryAttempts times with jittered
// exponential backoff starting at DefaultRetryBaseDelay.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
	DefaultRetryAttempts    = 2
	DefaultRetryBaseDelay   = 50 * time.Millisecond
	DefaultPushQueueLen     = 256
	DefaultPushWorkers      = 2
)

// FalloverDepth is how far down a key's successor list health-gated
// routing will go: the primary owner plus one fallback. Receivers
// accept pushed records from any sender that routed within this depth,
// so the ownership check stays meaningful while an owner is down.
const FalloverDepth = 2

// Config assembles a Client.
type Config struct {
	// Self is this node's own name in the peer list (e.g. its
	// advertised host:port). Keys owned by Self are local.
	Self string
	// Peers is the full static fleet membership, Self included (it is
	// added if absent). Order does not matter.
	Peers []string
	// Secret authenticates node-to-node traffic: every peer request
	// carries it in AuthHeader, and every node rejects peer requests
	// that do not present it. Required (at least MinSecretLen bytes) —
	// the peer surface shares the client listener, so an unsecured
	// fleet would let any network client read or poison the cache.
	Secret string
	// VirtualNodes tunes the ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Timeout bounds each peer request (0 = DefaultTimeout).
	Timeout time.Duration
	// BaseURL maps a node name to the base URL its HTTP surface is
	// reachable at; nil means "http://" + node.
	BaseURL func(node string) string
	// Transport overrides the HTTP transport (tests); nil means
	// http.DefaultTransport.
	Transport http.RoundTripper

	// BreakerThreshold is how many consecutive failures trip a peer's
	// circuit breaker (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker shuns its peer
	// before admitting a half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// RetryAttempts is how many times an idempotent fetch retries after
	// a transport failure (<0 disables retry, 0 = DefaultRetryAttempts).
	RetryAttempts int
	// RetryBaseDelay seeds the jittered exponential backoff between
	// retries (0 = DefaultRetryBaseDelay).
	RetryBaseDelay time.Duration
	// PushQueueLen bounds the async push queue; enqueues beyond it are
	// dropped and counted (0 = DefaultPushQueueLen).
	PushQueueLen int
	// PushWorkers is how many goroutines drain the push queue
	// (0 = DefaultPushWorkers).
	PushWorkers int
}

// Observer receives the client's resilience events so the serving
// layer can feed its metrics without this package depending on it.
// Any field may be nil. Callbacks must be safe for concurrent use and
// must not block.
type Observer struct {
	// BreakerChange fires on every breaker transition with the new
	// state (the `tensat_peer_breaker_state{peer}` gauge value).
	BreakerChange func(peer string, state BreakerState)
	// PushDone fires when an async push finishes (err nil on success).
	PushDone func(err error)
	// FetchRetry fires before each fetch retry attempt.
	FetchRetry func(peer string)
}

// Client fetches and pushes encoded cache records across the fleet.
// All methods are safe for concurrent use. Close releases the async
// push workers; after Close, EnqueuePush reports false.
type Client struct {
	self       string
	ring       *Ring
	baseURL    func(node string) string
	http       *http.Client
	secret     string
	secretHash [sha256.Size]byte

	breakers      map[string]*breaker.Breaker
	retryAttempts int
	retryBase     time.Duration

	obsMu sync.RWMutex
	obs   Observer

	pushMu     sync.RWMutex
	pushClosed bool
	pushCh     chan pushItem
	pushWG     sync.WaitGroup
}

type pushItem struct {
	key     string
	payload []byte
}

// New validates cfg and builds a Client. It fails when Self is empty,
// when the shared Secret is missing or too short, or when the fleet
// has no members besides the implicit Self — a single-node "cluster"
// should simply not configure one.
//
//lint:ctxflow-exempt constructor: bounded passes over the static fleet membership at config time
func New(cfg Config) (*Client, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self must name this node")
	}
	if len(cfg.Secret) < MinSecretLen {
		return nil, fmt.Errorf("cluster: Secret must be at least %d bytes (got %d) — the shared fleet secret is what keeps the peer cache surface off-limits to clients", MinSecretLen, len(cfg.Secret))
	}
	nodes := append([]string(nil), cfg.Peers...)
	found := false
	for _, n := range nodes {
		if n == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		nodes = append(nodes, cfg.Self)
	}
	ring := NewRing(nodes, cfg.VirtualNodes)
	if len(ring.Nodes()) < 2 {
		return nil, fmt.Errorf("cluster: need at least one peer besides self, got %v", ring.Nodes())
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	base := cfg.BaseURL
	if base == nil {
		base = func(node string) string { return "http://" + node }
	}
	threshold := cfg.BreakerThreshold
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	cooldown := cfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	retries := cfg.RetryAttempts
	if retries == 0 {
		retries = DefaultRetryAttempts
	} else if retries < 0 {
		retries = 0
	}
	retryBase := cfg.RetryBaseDelay
	if retryBase <= 0 {
		retryBase = DefaultRetryBaseDelay
	}
	queueLen := cfg.PushQueueLen
	if queueLen <= 0 {
		queueLen = DefaultPushQueueLen
	}
	workers := cfg.PushWorkers
	if workers <= 0 {
		workers = DefaultPushWorkers
	}
	c := &Client{
		self:          cfg.Self,
		ring:          ring,
		baseURL:       base,
		secret:        cfg.Secret,
		secretHash:    sha256.Sum256([]byte(cfg.Secret)),
		retryAttempts: retries,
		retryBase:     retryBase,
		breakers:      make(map[string]*breaker.Breaker),
		pushCh:        make(chan pushItem, queueLen),
		http: &http.Client{
			Timeout:   timeout,
			Transport: cfg.Transport,
		},
	}
	for _, n := range ring.Nodes() {
		if n == cfg.Self {
			continue
		}
		peer := n
		c.breakers[peer] = breaker.New(threshold, cooldown, func(_, to BreakerState) {
			c.notifyBreaker(peer, to)
		})
	}
	c.pushWG.Add(workers)
	for i := 0; i < workers; i++ {
		go c.pushWorker()
	}
	return c, nil
}

// SetObserver installs the resilience-event callbacks. Call it once,
// before serving traffic.
func (c *Client) SetObserver(o Observer) {
	c.obsMu.Lock()
	c.obs = o
	c.obsMu.Unlock()
}

func (c *Client) observer() Observer {
	c.obsMu.RLock()
	defer c.obsMu.RUnlock()
	return c.obs
}

func (c *Client) notifyBreaker(peer string, st BreakerState) {
	if f := c.observer().BreakerChange; f != nil {
		f(peer, st)
	}
}

// Close stops the async push workers after draining whatever the queue
// already holds. Subsequent EnqueuePush calls report false.
func (c *Client) Close() {
	c.pushMu.Lock()
	if !c.pushClosed {
		c.pushClosed = true
		close(c.pushCh)
	}
	c.pushMu.Unlock()
	c.pushWG.Wait() //lint:ctxflow-exempt shutdown path: bounded by the queue length times the per-push HTTP timeout
}

// Self returns this node's name.
func (c *Client) Self() string { return c.self }

// Authorize reports whether a presented AuthHeader value matches the
// fleet secret. The comparison runs over fixed-size digests in
// constant time, so neither the secret's length nor its contents leak
// through response timing.
func (c *Client) Authorize(presented string) bool {
	h := sha256.Sum256([]byte(presented))
	return subtle.ConstantTimeCompare(h[:], c.secretHash[:]) == 1
}

// Nodes returns the fleet membership, sorted.
func (c *Client) Nodes() []string { return c.ring.Nodes() }

// Owner returns the node owning key and whether that is this node.
// Ownership here is the ring's primary assignment, ignoring health —
// use it for reporting; routing goes through the health-gated path.
func (c *Client) Owner(key string) (node string, local bool) {
	node = c.ring.Owner(key)
	return node, node == c.self
}

// MayOwn reports whether this node is an acceptable home for key: the
// primary owner, or close enough in the successor list (within
// FalloverDepth) that a peer whose view has the primary down would
// route the key here. Receivers use it to validate pushed records.
func (c *Client) MayOwn(key string) bool {
	for _, n := range c.ring.Successors(key, FalloverDepth) {
		if n == c.self {
			return true
		}
	}
	return false
}

// BreakerStates reports every peer's current breaker state, keyed by
// peer name. For readiness reporting.
//
//lint:ctxflow-exempt bounded snapshot of the static per-peer breaker map; no I/O
func (c *Client) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(c.breakers))
	for peer, b := range c.breakers {
		out[peer] = b.State()
	}
	return out
}

// route picks the node a request for key should go to, walking the
// key's successor list and skipping peers whose breaker refuses the
// request. local=true means the walk reached this node first — serve
// its local tiers. A nil breaker with ok=true never happens: every
// granted remote route has acquired its peer's breaker and the caller
// must settle it with Success or Failure.
func (c *Client) route(key string) (node string, local bool, br *breaker.Breaker, ok bool) {
	for _, n := range c.ring.Successors(key, FalloverDepth) {
		if n == c.self {
			return "", true, nil, false
		}
		b := c.breakers[n]
		if b != nil && b.TryAcquire() {
			return n, false, b, true
		}
	}
	return "", false, nil, false
}

func (c *Client) keyURL(node, key string) string {
	return c.baseURL(node) + PeerPath + url.PathEscape(key)
}

// backoff sleeps the jittered exponential delay for the given retry
// attempt (0-based), honoring ctx cancellation.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.retryBase << uint(attempt)
	// Full jitter over [d/2, d): concurrent retries against a
	// recovering peer spread out instead of stampeding.
	half := int64(d / 2)
	if half < 1 {
		half = 1
	}
	d = time.Duration(half + rand.Int63n(half))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Fetch asks key's owner (or, when the owner's breaker is open, its
// live successor) for its cached record. It returns ErrNotFound on a
// clean miss, ErrPeerDown when no live peer exists, and other errors
// on transport failures — all of which callers treat as "compute
// locally". Transport failures are retried with jittered exponential
// backoff (fetches are idempotent); every failure feeds the peer's
// circuit breaker. Fetch on a locally-owned key returns ErrNotFound
// immediately (the local tiers were already consulted).
func (c *Client) Fetch(ctx context.Context, key string) ([]byte, error) {
	node, local, br, ok := c.route(key)
	if local {
		return nil, ErrNotFound
	}
	if !ok {
		return nil, ErrPeerDown
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		payload, retriable, err := c.doFetch(ctx, node, key)
		if err == nil || !retriable {
			// The peer answered (a record, a miss, a loop, a rejection): it
			// is alive, whatever it said.
			br.Success()
			return payload, err
		}
		br.Failure()
		lastErr = err
		if attempt >= c.retryAttempts {
			return nil, lastErr
		}
		if err := c.backoff(ctx, attempt); err != nil {
			return nil, lastErr
		}
		if !br.TryAcquire() {
			// Breaker tripped during the backoff: stop hammering.
			return nil, lastErr
		}
		if f := c.observer().FetchRetry; f != nil {
			f(node)
		}
	}
}

// doFetch runs one fetch attempt. retriable=true marks transport-level
// failures worth retrying and counting against the breaker.
func (c *Client) doFetch(ctx context.Context, node, key string) (payload []byte, retriable bool, err error) {
	if err := fault.Check("peer.fetch"); err != nil {
		return nil, true, fmt.Errorf("cluster: fetching %q from %s: %w", key, node, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(node, key), nil)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set(AuthHeader, c.secret)
	req.Header.Set(OriginHeader, c.self)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("cluster: fetching %q from %s: %w", key, node, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Bound the read: a record larger than the store's frame limit
		// is corrupt by definition.
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
		if err != nil {
			return nil, true, fmt.Errorf("cluster: reading record from %s: %w", node, err)
		}
		return payload, false, nil
	case http.StatusNotFound:
		return nil, false, ErrNotFound
	case http.StatusLoopDetected:
		return nil, false, fmt.Errorf("%w (peer %s)", ErrLoop, node)
	default:
		if resp.StatusCode >= 500 {
			return nil, true, fmt.Errorf("cluster: peer %s answered %s", node, resp.Status)
		}
		return nil, false, fmt.Errorf("cluster: peer %s answered %s", node, resp.Status)
	}
}

// Push synchronously sends an encoded record toward key's owner (or
// its live successor) so the fleet's warm set converges on the
// responsible node. Pushing a locally-owned key is a no-op (the caller
// already stored it). Push is best-effort and single-attempt: errors
// are for counters and logs, never for failing the client request.
// Prefer EnqueuePush, which bounds concurrency and retries.
func (c *Client) Push(ctx context.Context, key string, payload []byte) error {
	node, local, br, ok := c.route(key)
	if local {
		return nil
	}
	if !ok {
		return ErrPeerDown
	}
	err := c.doPush(ctx, node, key, payload)
	br.Settle(err)
	return err
}

func (c *Client) doPush(ctx context.Context, node, key string, payload []byte) error {
	if err := fault.Check("peer.push"); err != nil {
		return fmt.Errorf("cluster: pushing %q to %s: %w", key, node, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.keyURL(node, key), bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set(AuthHeader, c.secret)
	req.Header.Set(OriginHeader, c.self)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: pushing %q to %s: %w", key, node, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s rejected push: %s", node, resp.Status)
	}
	return nil
}

// EnqueuePush hands a record to the bounded async push queue. It never
// blocks: when the queue is full (pushes arriving faster than peers
// absorb them) or the client is closed, the record is dropped and
// EnqueuePush reports false so the caller can count it.
//
//lint:ctxflow-exempt non-blocking by construction: the select has a default arm that drops
func (c *Client) EnqueuePush(key string, payload []byte) bool {
	c.pushMu.RLock()
	defer c.pushMu.RUnlock()
	if c.pushClosed {
		return false
	}
	select {
	case c.pushCh <- pushItem{key: key, payload: payload}:
		return true
	default:
		return false
	}
}

// pushWorker drains the push queue, retrying transient failures with
// backoff. The queue channel closing (Close) ends the worker once the
// backlog is drained.
func (c *Client) pushWorker() {
	defer c.pushWG.Done()
	for item := range c.pushCh {
		c.pushOne(item)
	}
}

// pushOne pushes one queued record, retrying transport failures with
// backoff; a locally owned key or an open breaker ends it at once.
func (c *Client) pushOne(item pushItem) {
	ctx := context.Background()
	var err error
	for attempt := 0; ; attempt++ {
		err = c.Push(ctx, item.key, item.payload)
		if err == nil || errors.Is(err, ErrPeerDown) || attempt >= c.retryAttempts {
			break
		}
		if c.backoff(ctx, attempt) != nil {
			break
		}
	}
	if f := c.observer().PushDone; f != nil {
		f(err)
	}
}
