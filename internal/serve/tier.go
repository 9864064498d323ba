package serve

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"tensat/internal/breaker"
	"tensat/internal/cachestore"
	"tensat/internal/cluster"
	"tensat/internal/obs"
)

// Cache tier names, reported in Response.Tier and the HTTP
// "cache_tier" field: where a cached answer came from.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
	TierPeer   = "peer"
)

// tier is one byte-level cache tier behind the in-memory LRU: it holds
// encoded records (cachestore codec) under cache keys. The LRU itself
// holds decoded results and stays a direct call in front of the tier
// loop — behind this interface a memory hit would pay an encode and a
// decode it does not pay today.
//
// get and put report errTierMiss for a clean miss and errTierSkip when
// the tier chose not to act (see each tier's notion of a quiet skip);
// any other error is a tier fault. None of them ever fails a request:
// Service.lookup and Service.publish turn them into the tier's
// counters and a log line.
type tier interface {
	// name is the tier's Response.Tier label.
	name() string
	get(ctx context.Context, key string) ([]byte, error)
	// put returns nil once the record is stored; a put whose outcome
	// arrives later (the peer's async push) reports errTierSkip and
	// accounts for itself.
	put(key string, payload []byte) error
	metrics() tierMetrics
}

var (
	errTierMiss = errors.New("serve: cache tier miss")
	errTierSkip = errors.New("serve: cache tier skipped")
	// errKeyMismatch marks a record whose embedded identity does not
	// derive the key it was stored or pushed under.
	errKeyMismatch = errors.New("serve: record's embedded identity does not derive its key")
)

// decodeRecord decodes an encoded record and verifies that its embedded
// key components re-derive key — a record that answers some other
// request is as unusable as a corrupt one. It is the single
// decode-and-verify for bytes from the disk, a peer's reply, and a
// peer's push alike.
func decodeRecord(key string, payload []byte) (*cachedResult, error) {
	res, tensors, parts, err := cachestore.Decode(payload)
	if err != nil {
		return nil, err
	}
	if keyFromParts(parts) != key {
		return nil, errKeyMismatch
	}
	return &cachedResult{res: res, tensors: tensors, parts: parts}, nil
}

// defaultStoreReprobe is how often a degraded store lets one operation
// through to test whether the fault (a full disk, a flaky volume) has
// cleared.
const defaultStoreReprobe = 5 * time.Second

// storeTier is the persistent result store behind a breaker with
// threshold 1: the first I/O error opens it (degraded mode — the daemon
// keeps serving from memory), one probe operation per reprobe interval
// is admitted, and the probe's outcome closes or re-opens it. Its quiet
// skip is "breaker not closed and this operation is not the probe".
type storeTier struct {
	st cachestore.Store
	br *breaker.Breaker
	m  tierMetrics
}

func newStoreTier(st cachestore.Store, reprobe time.Duration, m tierMetrics, log *slog.Logger) *storeTier {
	if reprobe <= 0 {
		reprobe = defaultStoreReprobe
	}
	return &storeTier{st: st, m: m, br: breaker.New(1, reprobe, func(from, to breaker.State) {
		// Degraded means "not closed": probes moving between open and
		// half-open are not mode changes.
		switch {
		case from == breaker.Closed:
			log.Error("result store degraded — serving from memory, reprobing", "reprobe", reprobe)
		case to == breaker.Closed:
			log.Info("result store recovered")
		}
	})}
}

func (t *storeTier) name() string         { return TierDisk }
func (t *storeTier) metrics() tierMetrics { return t.m }

func (t *storeTier) get(_ context.Context, key string) ([]byte, error) {
	if !t.br.TryAcquire() {
		return nil, errTierSkip
	}
	payload, ok, err := t.st.Get(key)
	t.br.Settle(err)
	if err == nil && !ok {
		err = errTierMiss
	}
	return payload, err
}

func (t *storeTier) put(key string, payload []byte) error {
	if !t.br.TryAcquire() {
		// Degraded mode: the write is skipped, not failed. The result
		// still lives in memory (or with the peer that pushed it); a
		// recomputation after restart is the accepted cost.
		return errTierSkip
	}
	err := t.st.Put(key, payload)
	t.br.Settle(err)
	return err
}

// peerTier is the fleet cache tier: keys whose consistent-hash owner is
// another node are fetched from, and cold results pushed to, that
// owner. Its quiet skips are a locally owned key, every candidate
// owner's breaker being open, and a requester that went away.
type peerTier struct {
	cl  *cluster.Client
	m   tierMetrics
	log *slog.Logger
	// dropped counts pushes the bounded queue refused.
	dropped *obs.Counter
}

func (t *peerTier) name() string         { return TierPeer }
func (t *peerTier) metrics() tierMetrics { return t.m }

func (t *peerTier) get(ctx context.Context, key string) ([]byte, error) {
	if _, local := t.cl.Owner(key); local {
		return nil, errTierSkip
	}
	payload, err := t.cl.Fetch(ctx, key)
	switch {
	case errors.Is(err, cluster.ErrNotFound):
		return nil, errTierMiss
	case errors.Is(err, cluster.ErrPeerDown), errors.Is(err, context.Canceled):
		// No live owner — the client degraded to local compute without a
		// network round trip, and the breaker gauge carries the signal —
		// or the requester went away: neither is a peer fault.
		return nil, errTierSkip
	}
	return payload, err
}

// put hands the record to the client's bounded async push queue: its
// workers retry with backoff and report each outcome through pushDone.
// A full queue drops the push — the owner just stays cold for this key
// — rather than accumulating goroutines during a peer outage.
func (t *peerTier) put(key string, payload []byte) error {
	if _, local := t.cl.Owner(key); !local && !t.cl.EnqueuePush(key, payload) {
		t.dropped.Inc()
		t.log.Warn("peer push dropped — queue full or closed", "key", key)
	}
	return errTierSkip
}

// pushDone is the cluster.Observer hook that accounts for one finished
// async push. A push that found no live peer never left this node and
// counts as neither a put nor an error; the breaker gauge carries that
// signal.
func (t *peerTier) pushDone(err error) {
	switch {
	case err == nil:
		t.m.puts.Inc()
	case !errors.Is(err, cluster.ErrPeerDown):
		t.m.errors.Inc()
		t.log.Warn("peer push failed", "error", err)
	}
}

// lookup consults the cache tiers in cost order: the in-memory LRU,
// then each byte tier (the persistent store, then the key's owning
// peer), promoting a hit to memory. Tier misses, skips and faults are
// never request errors.
func (s *Service) lookup(ctx context.Context, q request) (*cachedResult, string, bool) {
	key := q.key
	if entry, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Inc()
		return entry, TierMemory, true
	}
	for _, t := range s.tiers {
		payload, err := t.get(ctx, key)
		var entry *cachedResult
		if err == nil {
			// An unreadable or mis-keyed record (stale schema, version
			// skew, a misconfigured ring) is a tier fault the run
			// recomputes over, never a hit.
			entry, err = decodeRecord(key, payload)
		}
		switch {
		case err == nil:
			s.cache.add(key, entry, int64(len(payload)))
			t.metrics().hits.Inc()
			return entry, t.name(), true
		case errors.Is(err, errTierMiss):
			t.metrics().misses.Inc()
		case errors.Is(err, errTierSkip):
		default:
			t.metrics().errors.Inc()
			s.log.Warn("cache tier read failed", "tier", t.name(), "key", key, "error", err)
		}
	}
	return nil, "", false
}

// publish stores a full-quality result in the in-memory LRU and writes
// its encoded record through the given tiers: the persistent store
// synchronously — the result must survive a crash that immediately
// follows the reply — and, when another node owns the key, the peer
// tier's best-effort asynchronous push.
func (s *Service) publish(key string, entry *cachedResult, payload []byte, tiers []tier) {
	s.cache.add(key, entry, int64(len(payload)))
	for _, t := range tiers {
		switch err := t.put(key, payload); {
		case err == nil:
			t.metrics().puts.Inc()
		case errors.Is(err, errTierSkip):
		default:
			t.metrics().errors.Inc()
			s.log.Warn("cache tier write failed", "tier", t.name(), "key", key, "error", err)
		}
	}
}

// cacheResult publishes a completed full-quality run to every tier.
func (s *Service) cacheResult(key string, entry *cachedResult) {
	var payload []byte
	tiers := s.tiers
	if len(tiers) > 0 || s.cfg.CacheMaxBytes > 0 {
		var err error
		if payload, err = cachestore.Encode(entry.res, entry.tensors, entry.parts); err != nil {
			s.log.Warn("encoding result for persistence", "key", key, "error", err)
			payload, tiers = nil, nil
		}
	}
	s.publish(key, entry, payload, tiers)
}

// storeDegraded reports whether the persistent store's breaker is not
// closed (false when no store is configured) — the source of
// tensat_store_degraded, /readyz and /v1/stats.
func (s *Service) storeDegraded() bool {
	return s.disk != nil && s.disk.br.State() != breaker.Closed
}
