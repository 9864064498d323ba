package serve

import "time"

// Stats reads the service's instruments (the registry behind GET
// /metrics) into the GET /v1/stats body. It also purges expired jobs:
// the job store has no background sweeper, so a server whose only
// traffic is monitoring still releases finished jobs — their result
// graphs and progress logs — once JobTTL elapses.
func (s *Service) Stats() StatsReply {
	s.jobs.purge()
	m := s.metrics
	// Truncating to whole nanoseconds keeps p*_ms at six decimals.
	ms := func(q float64) float64 {
		d := time.Duration(m.runSeconds.Quantile(q) * float64(time.Second))
		return float64(d) / float64(time.Millisecond)
	}
	st := StatsReply{
		Hits:         m.cacheHits.Value(),
		Misses:       m.cacheMisses.Value(),
		Deduped:      m.cacheDedup.Value(),
		Completed:    m.completed.Value(),
		Errors:       m.runErrors.Value(),
		Canceled:     m.canceled.Value(),
		InFlight:     int(m.inFlight.Value()),
		CacheEntries: s.cache.len(),
		CacheBytes:   s.cache.bytesUsed(),
		QueueWaiting: s.queue.waiting(),
		Workers:      s.Workers(),
		P50MS:        ms(0.50),
		P95MS:        ms(0.95),
		P99MS:        ms(0.99),

		JobsSubmitted: m.jobsSubmitted.Value(),
		JobsRunning:   int(m.jobsRunning.Value()),
		JobsDone:      m.jobsDone.Value(),
		JobsCanceled:  m.jobsCanceled.Value(),
		JobsFailed:    m.jobsFailed.Value(),
		Profiles:      m.requests.Values("/"),

		SearchClassesScanned: m.searchScanned.Value(),
		SearchClassesPruned:  m.searchPruned.Value(),
		SearchDirtySearched:  m.searchDirty.Value(),
		SearchCleanReused:    m.searchClean.Value(),
		SearchMatches:        m.searchMatches.Value(),

		ILPPresolveFixed:   m.ilpPresolveFixed.Value(),
		ILPPresolveDropped: m.ilpPresolveDropped.Value(),
		ILPPresolveRemoved: m.ilpPresolveRemoved.Value(),
		ILPIncumbents:      m.ilpIncumbents.Value(),
		ILPSolves:          m.ilpSolves.Values("/"),

		StoreHits:     m.store.hits.Value(),
		StoreMisses:   m.store.misses.Value(),
		StoreErrors:   m.store.errors.Value(),
		StorePuts:     m.store.puts.Value(),
		StoreDegraded: s.storeDegraded(),

		PeerHits:        m.peer.hits.Value(),
		PeerMisses:      m.peer.misses.Value(),
		PeerErrors:      m.peer.errors.Value(),
		PeerPuts:        m.peer.puts.Value(),
		PeerRetries:     m.peerRetries.Value(),
		PeerPushDropped: m.peerPushDropped.Value(),
		PeerBreakers:    peerBreakers(s),

		Panics:   m.panics.Values("/"),
		Draining: s.drain.active(),

		ShedTotal:      m.shed.Value(),
		TenantRequests: m.tenantRequests.Values("/"),
		TenantRejected: m.tenantRejected.Values("/"),
	}
	if s.cfg.Store != nil {
		st.StoreEntries = s.cfg.Store.Len()
		st.StoreBytes = s.cfg.Store.Bytes()
	}
	return st
}
