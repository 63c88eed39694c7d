package main

// perLayerDef names one per-layer metric of the traced run. The
// module prefix is the layer; README.md maps each to the end-to-end
// metric it should move.
type perLayerDef struct {
	name, unit string
}

var perLayerDefs = []perLayerDef{
	{"cluster.self_ms", "ms"},
	{"cluster.upstream_ms", "ms"},
	{"cluster.upstream_per_op", "ratio"},
	{"cluster.replica_fills_per_kop", "1/kop"},
	{"cluster.peerfill_ms", "ms"},
	{"cluster.retries", "count"},
	{"service.handler_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.shed_per_kop", "1/kop"},
	{"service.cache.hit_frac", "frac"},
	{"service.cache.builds_per_kop", "1/kop"},
	{"service.cache.promotions_per_kop", "1/kop"},
	{"service.cache.demotions_per_kop", "1/kop"},
	{"service.cache.evictions_per_kop", "1/kop"},
	{"service.cache.admission_rejects_per_kop", "1/kop"},
	{"service.cache.prefilled_per_kop", "1/kop"},
	{"service.cache.wait_ms", "ms"},
	{"service.cache.bytes_peak", "bytes"},
	{"trace.decode_ms", "ms"},
	{"trace.fingerprint_ms", "ms"},
	{"cost.build_ms", "ms"},
	{"cost.promote_ms", "ms"},
	{"sched.gomcds_ms", "ms"},
	{"sched.scds_ms", "ms"},
	{"sched.lomcds_ms", "ms"},
	{"delta.apply_ms", "ms"},
	{"delta.schedule_ms", "ms"},
	{"delta.layers_recomputed", "count"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"host.ref_ms", "ms"},
	{"closure.unattributed_frac", "frac"},
	{"closure.trace_overhead_frac", "frac"},
}

// perLayer computes every per-layer metric from the traced phase: span
// means for times, /stats and Router.Stats deltas for counts, and
// runtime/metrics plus rusage deltas for the process.
func perLayer(p *phase, st spanStats, cl closureReport, host hostInfo) map[string]float64 {
	ops := float64(max(1, p.attempted))
	perKop := func(n uint64) float64 { return float64(n) * 1000 / ops }
	b, a := p.before, p.after
	m := map[string]float64{}

	m["cluster.self_ms"] = st.routerSelf.meanMS()
	m["cluster.upstream_ms"] = st.upstream.meanMS()
	if st.routerReqs.n > 0 {
		m["cluster.upstream_per_op"] = float64(st.upstream.n) / float64(st.routerReqs.n)
	}
	m["cluster.replica_fills_per_kop"] = perKop(a.router.ReplicaFills - b.router.ReplicaFills)
	if n := a.fills - b.fills; n > 0 {
		m["cluster.peerfill_ms"] = float64(a.fillNs-b.fillNs) / 1e6 / float64(n)
	}
	m["cluster.retries"] = float64(a.router.Retries - b.router.Retries)

	m["service.handler_ms"] = st.shardReqs.meanMS()
	m["service.self_ms"] = st.shardSelf.meanMS()
	m["service.shed_per_kop"] = perKop(a.shard.RejectedOverload - b.shard.RejectedOverload)

	hits := a.shard.CacheHits - b.shard.CacheHits
	misses := a.shard.CacheMisses - b.shard.CacheMisses
	if hits+misses > 0 {
		m["service.cache.hit_frac"] = float64(hits) / float64(hits+misses)
	}
	m["service.cache.builds_per_kop"] = perKop(a.shard.TablesBuilt - b.shard.TablesBuilt)
	m["service.cache.promotions_per_kop"] = perKop(a.shard.CachePromotions - b.shard.CachePromotions)
	m["service.cache.demotions_per_kop"] = perKop(a.shard.CacheDemotions - b.shard.CacheDemotions)
	m["service.cache.evictions_per_kop"] = perKop(a.shard.CacheEvictions - b.shard.CacheEvictions)
	m["service.cache.admission_rejects_per_kop"] = perKop(a.shard.CacheAdmitRejects - b.shard.CacheAdmitRejects)
	m["service.cache.prefilled_per_kop"] = perKop(a.shard.TablesPrefilled - b.shard.TablesPrefilled)
	m["service.cache.wait_ms"] = st.stageMeanMS("table.wait")
	m["service.cache.bytes_peak"] = float64(p.peakCacheBytes)

	m["trace.decode_ms"] = st.stageMeanMS("decode")
	m["trace.fingerprint_ms"] = st.stageMeanMS("fingerprint")
	m["cost.build_ms"] = st.stageMeanMS("table.build")
	m["cost.promote_ms"] = st.stageMeanMS("table.promote")
	m["sched.gomcds_ms"] = st.stageMeanMS("sched.gomcds")
	m["sched.scds_ms"] = st.stageMeanMS("sched.scds")
	m["sched.lomcds_ms"] = st.stageMeanMS("sched.lomcds")

	m["delta.apply_ms"] = st.classMeanMS("delta")
	m["delta.schedule_ms"] = st.classMeanMS("session.schedule")
	if len(p.layers) > 0 {
		sum := 0
		for _, l := range p.layers {
			sum += l
		}
		m["delta.layers_recomputed"] = float64(sum) / float64(len(p.layers))
	}

	pb, pa := p.procBefore, p.procAfter
	m["runtime.cpu_ms_per_op"] = ms(pa.cpu-pb.cpu) / ops
	m["runtime.alloc_kb_per_op"] = float64(pa.allocBytes-pb.allocBytes) / 1024 / ops
	m["runtime.allocs_per_op"] = float64(pa.allocObjs-pb.allocObjs) / ops
	if d := pa.totalCPUEst - pb.totalCPUEst; d > 0 {
		m["runtime.gc_cpu_frac"] = (pa.gcCPU - pb.gcCPU) / d
	}

	m["host.ref_ms"] = (host.RefMSBefore + host.RefMSAfter) / 2
	m["closure.unattributed_frac"] = cl.UnattributedFrac
	m["closure.trace_overhead_frac"] = cl.TraceOverheadFrac
	return m
}
