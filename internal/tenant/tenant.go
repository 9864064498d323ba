// Package tenant gives tensatd multi-tenant admission control: API
// keys loaded from a JSON file, a per-tenant token bucket (sustained
// request rate + burst), a per-tenant concurrency quota, and a
// priority that feeds serve's priority job queue.
//
// Admission is three-valued. A request from a tenant with quota
// headroom is admitted at full quality. A request from a tenant whose
// quota is saturated is *degraded* — serve runs it greedy-only,
// tags the result, and never caches it — as long as the tenant's shed
// headroom (one degraded slot per concurrency-quota slot, minimum one)
// is free. Only when even that is exhausted is the request rejected,
// with a Retry-After computed from the bucket's refill rate. Load thus
// sheds quality before it sheds availability: a saturated tenant keeps
// getting fast greedy answers instead of 429s. A tenant at or above
// the no-shed priority floor is never degraded: where it would be, it
// is rejected instead.
package tenant

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Tenant is one API-key principal as declared in the tenants file.
type Tenant struct {
	// Name identifies the tenant in stats, logs and metric labels.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-API-Key: <key>". Keys must be unique across the file.
	Key string `json:"key"`
	// Priority orders the fleet's job queue: higher runs first. It also
	// selects shedding behavior, decided by Acquire: tenants below this
	// package's no-shed floor (100) degrade to greedy-only under
	// pressure, tenants at or above it are never degraded (they get
	// explicit 429s instead).
	Priority int `json:"priority"`
	// RateRPS is the sustained full-quality request rate (token-bucket
	// refill). 0 disables rate limiting for this tenant.
	RateRPS float64 `json:"rate_rps"`
	// Burst is the bucket depth (0 = max(1, ceil(RateRPS))).
	Burst int `json:"burst"`
	// MaxConcurrent caps this tenant's simultaneously running
	// full-quality jobs. 0 = unlimited.
	MaxConcurrent int `json:"max_concurrent"`
}

// noShedPriority is the tenant priority at or above which requests are
// never quality-degraded: a saturated high-priority tenant gets an
// explicit 429 instead of a silently weaker answer.
const noShedPriority = 100

// shedSlots is the tenant's degraded-run headroom: how many degraded
// jobs may run at once while the full-quality quota is saturated.
func (t *Tenant) shedSlots() int {
	if t.MaxConcurrent <= 0 {
		return 1
	}
	return t.MaxConcurrent
}

func (t *Tenant) burst() float64 {
	if t.Burst > 0 {
		return float64(t.Burst)
	}
	if t.RateRPS <= 0 {
		return 1
	}
	return math.Max(1, math.Ceil(t.RateRPS))
}

// file is the tenants-file schema: {"tenants": [ ... ]}.
type file struct {
	Tenants []Tenant `json:"tenants"`
}

// Decision is the outcome of admission control for one request.
type Decision int

const (
	// Admit runs the request at full quality.
	Admit Decision = iota
	// Degrade runs the request greedy-only with a degraded tag: the
	// tenant is over quota but has shed headroom.
	Degrade
	// Reject answers 429; RetryAfter says when a token will exist.
	Reject
)

func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Degrade:
		return "degrade"
	default:
		return "reject"
	}
}

// state is one tenant's live accounting.
type state struct {
	t       Tenant
	tokens  float64
	last    time.Time
	running int // full-quality jobs in flight
	shed    int // degraded jobs in flight
}

// Registry holds the tenant set and its admission state. All methods
// are safe for concurrent use.
//
// API keys are indexed by their SHA-256 digest, not the plaintext:
// resolving a presented credential hashes it first, so the lookup's
// equality comparisons run over fixed-size digests and leak no timing
// signal about the keys' contents to unauthenticated callers probing
// the Authorization header.
type Registry struct {
	mu     sync.Mutex
	byKey  map[[sha256.Size]byte]*state
	byName map[string]*state
	now    func() time.Time // injectable clock for tests
}

// hashKey digests an API key for the registry index.
func hashKey(key string) [sha256.Size]byte {
	return sha256.Sum256([]byte(key))
}

// Load reads and validates a tenants file.
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	r, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return r, nil
}

// Parse builds a Registry from tenants-file JSON. Unknown fields,
// duplicate names or keys, and nonsensical quotas are errors: a typo
// in an access-control file must fail loudly at boot, not silently
// grant the wrong limits.
func Parse(data []byte) (*Registry, error) {
	var f file
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("parsing tenants file: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, fmt.Errorf("tenants file declares no tenants")
	}
	r := &Registry{
		byKey:  make(map[[sha256.Size]byte]*state, len(f.Tenants)),
		byName: make(map[string]*state, len(f.Tenants)),
		now:    time.Now,
	}
	for i, t := range f.Tenants {
		switch {
		case t.Name == "":
			return nil, fmt.Errorf("tenant %d: missing name", i)
		case t.Key == "":
			return nil, fmt.Errorf("tenant %q: missing key", t.Name)
		case len(t.Key) < 8:
			return nil, fmt.Errorf("tenant %q: key shorter than 8 characters", t.Name)
		case t.RateRPS < 0:
			return nil, fmt.Errorf("tenant %q: negative rate_rps", t.Name)
		case t.Burst < 0:
			return nil, fmt.Errorf("tenant %q: negative burst", t.Name)
		case t.MaxConcurrent < 0:
			return nil, fmt.Errorf("tenant %q: negative max_concurrent", t.Name)
		case t.Priority < 0:
			return nil, fmt.Errorf("tenant %q: negative priority", t.Name)
		}
		if _, dup := r.byName[t.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		if _, dup := r.byKey[hashKey(t.Key)]; dup {
			return nil, fmt.Errorf("tenant %q: key already used by another tenant", t.Name)
		}
		st := &state{t: t, tokens: t.burst(), last: time.Time{}}
		r.byName[t.Name] = st
		r.byKey[hashKey(t.Key)] = st
	}
	return r, nil
}

// Lookup resolves an API key to its tenant (a copy; quotas live in the
// registry). The presented key is hashed before the index lookup; see
// the Registry doc comment for why.
func (r *Registry) Lookup(key string) (Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byKey[hashKey(key)]
	if !ok {
		return Tenant{}, false
	}
	return st.t, true
}

// Names lists the declared tenants, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Acquire runs admission control for one request from the tenant
// named name, accounting the request (a token and a concurrency or
// shed slot) when the decision is Admit or Degrade. Every Admit or
// Degrade must be paired with exactly one Release. RetryAfter is
// meaningful only for Reject. A tenant at or above the no-shed floor
// is rejected where it would be degraded, and told to retry in a
// second: its shed slot was free, so the quota is the bound, not the
// bucket.
func (r *Registry) Acquire(name string) (d Decision, retryAfter time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byName[name]
	if !ok {
		// Unknown tenants are the transport layer's problem (401 before
		// admission); rejecting here keeps the accounting sound anyway.
		return Reject, time.Second
	}
	r.refillLocked(st)
	hasToken := st.t.RateRPS <= 0 || st.tokens >= 1
	hasSlot := st.t.MaxConcurrent <= 0 || st.running < st.t.MaxConcurrent
	if hasToken && hasSlot {
		if st.t.RateRPS > 0 {
			st.tokens--
		}
		st.running++
		return Admit, 0
	}
	if st.shed < st.t.shedSlots() {
		if st.t.Priority >= noShedPriority {
			return Reject, time.Second
		}
		st.shed++
		return Degrade, 0
	}
	return Reject, r.retryAfterLocked(st)
}

// Release returns the slot taken by an Acquire that answered Admit
// (degraded=false) or Degrade (degraded=true).
func (r *Registry) Release(name string, degraded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byName[name]
	if !ok {
		return
	}
	if degraded {
		if st.shed > 0 {
			st.shed--
		}
	} else if st.running > 0 {
		st.running--
	}
}

// refillLocked advances the token bucket to now.
func (r *Registry) refillLocked(st *state) {
	now := r.now()
	if st.last.IsZero() {
		st.last = now
		return
	}
	if st.t.RateRPS > 0 {
		st.tokens = math.Min(st.t.burst(), st.tokens+now.Sub(st.last).Seconds()*st.t.RateRPS)
	}
	st.last = now
}

// retryAfterLocked estimates when the tenant will next hold a full
// token: the Retry-After a 429 carries, rounded up to whole seconds so
// the header and the error text carry one number. At least one second
// — clients that retry sub-second defeat the point.
func (r *Registry) retryAfterLocked(st *state) time.Duration {
	if st.t.RateRPS <= 0 {
		// Purely concurrency-limited: no refill schedule to promise.
		return time.Second
	}
	missing := 1 - st.tokens
	if missing <= 0 {
		return time.Second
	}
	return max(time.Duration(math.Ceil(missing/st.t.RateRPS))*time.Second, time.Second)
}
