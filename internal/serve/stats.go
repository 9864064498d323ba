package serve

import "time"

// Stats is a point-in-time read of the service's instruments (the
// registry behind GET /metrics) in struct form.
type Stats struct {
	// Hits counts requests answered from the result cache; Misses
	// counts requests that had to consult the flight group (of which
	// Deduped joined an already-running identical optimization).
	Hits, Misses, Deduped uint64
	// Completed and Errors count finished optimization runs; Canceled
	// counts requests abandoned by their callers.
	Completed, Errors, Canceled uint64
	// InFlight is the number of optimizations currently holding a
	// worker slot; CacheEntries is the current LRU population and
	// CacheBytes its summed encoded size. QueueWaiting is how many runs
	// are queued for a worker slot.
	InFlight     int
	CacheEntries int
	CacheBytes   int64
	QueueWaiting int
	// Store counts the persistent result-store tier: disk hits and
	// misses after an LRU miss, unreadable/failed records, and
	// write-throughs. StoreEntries/StoreBytes snapshot the store's live
	// population (zero when no store is configured).
	Store        TierCounters
	StoreEntries int
	StoreBytes   int64
	// Peer counts the fleet cache tier: records served by the owning
	// peer, clean peer misses, transport failures (always soft), and
	// completed pushes of cold results to their owners.
	Peer TierCounters
	// PeerRetries counts fetch retry attempts against peers (transient
	// failures absorbed by backoff); PeerPushDropped counts async pushes
	// dropped because the bounded push queue was full.
	PeerRetries     uint64
	PeerPushDropped uint64
	// Shed counts requests degraded to greedy-only extraction because
	// their tenant was over quota; TenantRequests/TenantRejected count
	// per-tenant admission outcomes.
	Shed           uint64
	TenantRequests map[string]uint64
	TenantRejected map[string]uint64
	// Panics counts recovered panics by site ("optimizer", "worker",
	// "job"): each one was a request that answered 500 instead of
	// killing the daemon. Empty when none have occurred.
	Panics map[string]uint64
	// StoreDegraded reports whether the persistent store is currently
	// in degraded mode (I/O failures; the memory tier keeps serving).
	// Draining reports whether the service is shutting down gracefully.
	StoreDegraded bool
	Draining      bool
	// Jobs counts the asynchronous job lifecycle (submitted, running,
	// done, canceled, failed).
	Jobs JobCounters
	// Profiles counts requests per optimization profile, keyed
	// "<ruleset>/<costmodel>" (e.g. "taso-default/t4") — both the
	// synchronous and the job surface contribute.
	Profiles map[string]uint64
	// Search aggregates the e-matching search-phase counters over every
	// cold (uncached) optimization this server completed, so the
	// op-index pruning and incremental re-search wins are observable in
	// the serving layer.
	Search SearchCounters
	// ILP aggregates the ILP-extraction counters (presolve reduction,
	// incumbents, solve outcomes by backend) over the same runs.
	ILP ILPCounters
	// P50, P95 and P99 are bucket-interpolated quantiles of the cold
	// (uncached) optimization latency histogram tensat_run_seconds over
	// the service's lifetime; zero until the first run completes.
	P50, P95, P99 time.Duration
}

// TierCounters are the hit/miss/error/put counters of one secondary
// cache tier (the persistent store or the peer fleet).
type TierCounters struct {
	Hits   uint64
	Misses uint64
	Errors uint64
	Puts   uint64
}

func (t tierMetrics) snapshot() TierCounters {
	return TierCounters{
		Hits:   t.hits.Value(),
		Misses: t.misses.Value(),
		Errors: t.errors.Value(),
		Puts:   t.puts.Value(),
	}
}

// SearchCounters sums tensat.SearchStats over completed runs: classes
// scanned by the pattern programs vs. pruned by the operator index,
// dirty candidates re-searched vs. clean candidates answered from the
// per-iteration match memo, and total matches found.
type SearchCounters struct {
	ClassesScanned uint64
	ClassesPruned  uint64
	DirtySearched  uint64
	CleanReused    uint64
	Matches        uint64
}

// ILPCounters sums tensat.ILPStats over completed ILP-extraction runs:
// what presolve removed before solving, how many incumbent improvements
// the searches produced, and how each backend's solves ended. Solves is
// keyed "<backend>/optimal" or "<backend>/feasible" (an anytime answer
// returned at a budget without an optimality proof).
type ILPCounters struct {
	PresolveFixed   uint64
	PresolveDropped uint64
	PresolveRemoved uint64
	Incumbents      uint64
	Solves          map[string]uint64
}

// Stats reads the service's instruments into a Stats snapshot.
func (s *Service) Stats() Stats {
	m := s.metrics
	quantile := func(q float64) time.Duration {
		return time.Duration(m.runSeconds.Quantile(q) * float64(time.Second))
	}
	st := Stats{
		Hits:      m.cacheHits.Value(),
		Misses:    m.cacheMisses.Value(),
		Deduped:   m.cacheDedup.Value(),
		Completed: m.completed.Value(),
		Errors:    m.runErrors.Value(),
		Canceled:  m.canceled.Value(),

		InFlight:     int(m.inFlight.Value()),
		CacheEntries: s.cache.len(),
		CacheBytes:   s.cache.bytesUsed(),
		QueueWaiting: s.queue.waiting(),

		Store:           m.store.snapshot(),
		Peer:            m.peer.snapshot(),
		PeerRetries:     m.peerRetries.Value(),
		PeerPushDropped: m.peerPushDropped.Value(),

		Shed:           m.shed.Value(),
		TenantRequests: m.tenantRequests.Values("/"),
		TenantRejected: m.tenantRejected.Values("/"),
		Panics:         m.panics.Values("/"),
		StoreDegraded:  s.storeDegraded(),
		Draining:       s.drain.active(),
		Jobs:           s.JobCounters(),
		Profiles:       m.requests.Values("/"),

		Search: SearchCounters{
			ClassesScanned: m.searchScanned.Value(),
			ClassesPruned:  m.searchPruned.Value(),
			DirtySearched:  m.searchDirty.Value(),
			CleanReused:    m.searchClean.Value(),
			Matches:        m.searchMatches.Value(),
		},
		ILP: ILPCounters{
			PresolveFixed:   m.ilpPresolveFixed.Value(),
			PresolveDropped: m.ilpPresolveDropped.Value(),
			PresolveRemoved: m.ilpPresolveRemoved.Value(),
			Incumbents:      m.ilpIncumbents.Value(),
			Solves:          m.ilpSolves.Values("/"),
		},

		P50: quantile(0.50),
		P95: quantile(0.95),
		P99: quantile(0.99),
	}
	if s.cfg.Store != nil {
		st.StoreEntries = s.cfg.Store.Len()
		st.StoreBytes = s.cfg.Store.Bytes()
	}
	return st
}

// JobCounters reads the job-lifecycle instruments. It also purges
// expired jobs: the job store has no background sweeper, so a server
// whose only traffic is monitoring still releases finished jobs — their
// result graphs and progress logs — once JobTTL elapses.
func (s *Service) JobCounters() JobCounters {
	s.jobs.purge()
	m := s.metrics
	return JobCounters{
		Submitted: m.jobsSubmitted.Value(),
		Running:   int(m.jobsRunning.Value()),
		Done:      m.jobsDone.Value(),
		Canceled:  m.jobsCanceled.Value(),
		Failed:    m.jobsFailed.Value(),
	}
}
