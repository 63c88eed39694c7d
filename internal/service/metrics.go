package service

import (
	"time"

	"repro/internal/obs"
)

// serviceMetrics is the obs registry view over the service. The hot
// path keeps writing the same plain atomics it always did (and the
// stage histograms, which are themselves single atomic increments); the
// registry reads everything else lazily at scrape time through func
// metrics, so /metrics costs the request path nothing.
type serviceMetrics struct {
	reg     *obs.Registry
	stage   *obs.HistogramVec
	request *obs.Histogram
}

func newServiceMetrics(s *Service) *serviceMetrics {
	reg := obs.NewRegistry()
	m := &serviceMetrics{
		reg: reg,
		stage: reg.HistogramVec("pim_stage_duration_seconds",
			"Time spent in each schedule-pipeline stage (decode, fingerprint, table.build/encode/wait/hit/promote, sched.<algorithm>, verify, encode).",
			"stage", obs.LatencyBuckets),
		request: reg.Histogram("pim_request_duration_seconds",
			"End-to-end latency of completed schedule requests.", obs.LatencyBuckets),
	}
	reg.CounterFunc("pim_requests_total", "Schedule requests received.", s.requests.Load)
	reg.CounterFunc("pim_requests_completed_total", "Schedule requests completed successfully.", s.completed.Load)
	reg.LabeledCounterFunc("pim_requests_rejected_total", "Requests shed before running.",
		"reason", "overload", s.rejectedOverload.Load)
	reg.LabeledCounterFunc("pim_requests_rejected_total", "Requests shed before running.",
		"reason", "closed", s.rejectedClosed.Load)
	reg.CounterFunc("pim_bad_requests_total", "Malformed or infeasible requests.", s.badRequests.Load)
	reg.CounterFunc("pim_deadline_expired_total", "Requests abandoned by an expired deadline.", s.deadlineExpired.Load)
	reg.CounterFunc("pim_internal_errors_total", "Requests failed by internal errors.", s.internalErrors.Load)
	reg.CounterFunc("pim_tables_built_total", "Residence tables actually built (elected cache misses).", s.tablesBuilt.Load)
	reg.GaugeFunc("pim_requests_inflight", "Schedule computations currently running.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("pim_retry_after_seconds", "Backoff currently advertised on load-shed responses.",
		func() float64 { return float64(s.retryAfterSeconds()) })

	cacheCounter := func(pick func(cacheStats) uint64) func() uint64 {
		return func() uint64 { return pick(s.cache.counters()) }
	}
	reg.CounterFunc("pim_cache_hits_total", "Residence-table cache hits: resident tables (answered from the memo or a decode for the request) and finished builds.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.hits }))
	reg.CounterFunc("pim_cache_misses_total", "Residence-table cache misses.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.misses }))
	reg.CounterFunc("pim_cache_shared_builds_total", "Concurrent misses that piggybacked on an in-flight build.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.sharedBuilds }))
	reg.CounterFunc("pim_cache_evictions_total", "Residence-table cache evictions.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.evictions }))
	reg.CounterFunc("pim_cache_demotions_total", "Tables compressed into the cache, one per published or adopted table.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.demotions }))
	reg.CounterFunc("pim_cache_promotions_total", "Cached payloads decoded for one request each; the cache keeps only the payload.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.promotions }))
	reg.CounterFunc("pim_cache_admission_rejects_total", "Newly cached tables dropped because the eviction victim was hotter.",
		cacheCounter(func(cs cacheStats) uint64 { return cs.admissionRejects }))
	reg.GaugeFunc("pim_cache_entries", "Residence-table cache entries, resident or building.",
		func() float64 { return float64(s.cache.counters().entries) })
	reg.GaugeFunc("pim_cache_bytes", "Bytes charged to the table cache (compressed payloads, schedule memos and per-entry overhead).",
		func() float64 { return float64(s.cache.counters().bytes) })

	reg.CounterFunc("pim_trace_alias_hits_total", "Schedule requests whose body or trace text was already aliased to its fingerprint (no trace decode).", s.aliasHits.Load)
	reg.CounterFunc("pim_trace_alias_misses_total", "Schedule requests whose trace text had to be decoded and fingerprinted.", s.aliasMisses.Load)
	reg.CounterFunc("pim_trace_alias_body_hits_total", "Alias hits on the raw /schedule body (no JSON decode either).", s.aliasBodyHits.Load)
	reg.CounterFunc("pim_schedule_memo_hits_total", "Schedule specs answered from a cached table's schedule memo (no scheduler run).", s.memoHits.Load)
	reg.CounterFunc("pim_schedule_memo_misses_total", "Schedule specs that ran the scheduler over a cached table.", s.memoMisses.Load)
	reg.CounterFunc("pim_schedule_by_fingerprint_total", "Schedule requests naming their trace by fingerprint instead of carrying it.", s.byFingerprint.Load)
	reg.CounterFunc("pim_schedule_fingerprint_absent_total", "Fingerprint-form schedule requests answered 412: no resident table with an established shape.", s.fingerprintAbsent.Load)

	reg.CounterFunc("pim_batches_total", "Batch schedule requests completed.", s.batches.Load)
	reg.CounterFunc("pim_batch_specs_total", "Request specs completed inside batches.", s.batchSpecs.Load)
	reg.CounterFunc("pim_peer_fills_total", "Residence tables adopted from a peer shard instead of built.", s.peerFills.Load)
	reg.CounterFunc("pim_peer_fill_fallbacks_total", "Peer-fill attempts that fell back to a local build.", s.peerFillFallback.Load)
	reg.CounterFunc("pim_tables_served_total", "Cached residence tables served to peer shards.", s.tablesServed.Load)
	reg.CounterFunc("pim_tables_prefilled_total", "Residence tables adopted via router-pushed replica prefill.", s.tablesPrefilled.Load)
	reg.CounterFunc("pim_sessions_exported_total", "Sessions serialized for migration to another shard.", s.sessionsExported.Load)
	reg.CounterFunc("pim_sessions_imported_total", "Migrated sessions resumed from another shard's export.", s.sessionsImported.Load)

	reg.CounterFunc("pim_sessions_created_total", "Incremental scheduling sessions opened.", s.sessionsCreated.Load)
	reg.CounterFunc("pim_deltas_applied_total", "Trace deltas applied across all sessions.", s.deltasApplied.Load)
	reg.GaugeFunc("pim_sessions_active", "Incremental scheduling sessions currently live.",
		func() float64 { return float64(s.sessionCount()) })
	reg.GaugeFunc("pim_delta_layers_recomputed", "DP layers relaxed by the most recent session schedule computation.",
		func() float64 { return float64(s.deltaLayersRecomputed.Load()) })
	return m
}

// stageSink adapts the stage histogram vec to the obs.Stages hook the
// pipeline spans record into.
func (m *serviceMetrics) stageSink() obs.Stages {
	return func(stage string, d time.Duration) { m.stage.With(stage).ObserveDuration(d) }
}
