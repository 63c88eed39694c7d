#!/usr/bin/env bash
# Tier-2 verification gate: static analysis plus the full test suite
# with the race detector (the capture recorder, parallel table builder,
# worker pools and the scheduling service are all concurrency-bearing).
# Tier-1 remains `go build ./... && go test ./...`; run this script
# before merging anything that touches scheduling, cost evaluation or
# concurrency.
#
# Usage: scripts/check.sh [extra go test args, e.g. -short]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== build (incl. service + pimserve) =="
go build ./...
go build ./internal/service ./cmd/pimserve

echo "== go test -race =="
go test -race "$@" ./...

# The scheduling service's load referee: >= 100 concurrent HTTP clients
# against /schedule under the race detector, asserting responses match
# single-threaded sched runs bit-for-bit and that the fingerprint cache
# skipped table rebuilds. It already ran above as part of ./...; this
# dedicated -short invocation keeps a fast, named gate for the service
# even when the full suite is invoked with a narrower pattern.
echo "== service load test (-race -short) =="
go test -race -short -run '^TestLoadConcurrentClients$' ./internal/service

# The incremental-scheduling referees: the differential replay referee
# (seeded delta sequences pinning sessions to from-scratch recomputation
# after every step) and the 32-client single-session storm, both under
# the race detector. Like the load test, these already ran as part of
# ./... above; the named gates survive narrower invocations.
echo "== delta replay referee (-race) =="
go test -race -run '^TestDeltaReplayAgrees$' ./internal/verify
go test -race -run '^TestHTTPSessionConcurrentClients$' ./internal/service

# Schedule-memo referee: fresh, aliased, memo-hit, verify=true and
# batch answers bit-identical over seeded random traces at unbounded,
# tight and infeasible capacities; text variants, body variants
# (spacing, field order, verify in the body or the query),
# publish (compress) -> memo hit -> payload decode for an unseen spec
# (nothing else compressed or evicted) -> memo hit -> evict with memo
# bytes settling exactly, memo hits on resident nodes
# (TestMemoRefereeColdHit: answered without a payload decode, trace
# decode or scheduler run, bit-identical to a fresh service; a batch
# decodes the payload only for a spec the memo lacks, and its memoized
# specs are memo hits either way),
# caller-mutated centers, a memo hit written to the wire from the
# memo's compact centers byte-identical to encoding/json's response
# (TestMemoRefereeCompactResponse), over-budget traces and racing identical
# requests; refused bodies never aliased; a body-alias hit whose context
# expires mid-build still decodes intact bytes. Plus the
# counter-settlement check: alias hits + misses equal the requests that
# passed validation, memo hits + misses the specs that reached a table
# or a resident node's memo, and the router refuses and aliases bodies
# as the shard does. All under the race
# detector; they already ran under ./... above, the named gates survive
# narrower invocations.
echo "== schedule memo referee (-race) =="
go test -race -run '^TestMemoReferee' ./internal/service
go test -race -run '^(TestHashTextIsSHA256OfText|TestTextAliasBoundedFIFO|TestAliasDomainsShareOneBound)$' ./internal/trace
echo "== alias/memo counter settlement (-race) =="
go test -race -run '^TestAliasMemoCountersSettle$' ./internal/service
go test -race -run '^(TestRouterIdenticalSinglesShareOneMemoFill|TestRouterRefusedBodiesNeverAliased|TestRouterPrefillOnBodyHit)$' ./internal/cluster

# DP kernel referee: the sweep kernel against the dense O(P²)
# relaxation path for path on seeded layered instances, the batched
# layer-major solver against per-item Solve, and GOMCDS against a dense
# reference scheduler (per-item ShortestLayeredPathNaive plus placement
# trackers) at unbounded and tight capacity. Solve, SolveFromInto and
# SolveBatch share one layer step and walk-back; these pin it. All under
# the race detector; they already ran under ./... above, the named gate
# survives narrower invocations.
echo "== DP kernel referee (-race) =="
go test -race -run '^TestLayeredKernelsAgree$' ./internal/verify
go test -race -run '^TestSolveBatchMatchesSolve$' ./internal/costgraph
go test -race -run '^TestGOMCDSMatchesDenseReference$' ./internal/sched

# Hot-path allocation pins: the steady-state kernels (residence-row
# pricing, batched sweep DP, resumable DP, session delta patch) must be
# exactly zero allocs/op, a capacity-tracked GOMCDS run must stay under
# one allocation per (item, window), SCDS and LOMCDS runs must allocate
# per window, not per (window, item), the cache-hot full-service Schedule
# call must stay inside its fixed budget (in its trace and its
# fingerprint form), and so must a body-alias hit and a fingerprint-form
# request through the HTTP handler (allocs and bytes, so the request's
# JSON decode cannot come back), and a /schedule relayed by the router
# (bytes, so its response buffer stays pooled). They already ran under ./... above;
# this named gate re-runs them without the race runtime so the pins
# measure the production allocator, and survives narrower invocations.
echo "== allocation pins (no race) =="
go test -run '^(TestSolveBatchZeroAlloc|TestSolveFromIntoZeroAlloc)$' -v ./internal/costgraph
go test -run '^(TestGOMCDSCapacityAllocsBounded|TestLOMCDSAllocsBounded|TestSCDSAllocsBounded)$' -v ./internal/sched
go test -run '^(TestResidenceRowIntoZeroAlloc|TestPatchEditItemZeroAlloc|TestPatchRemoveWindowZeroAlloc)$' -v ./internal/cost
go test -run '^(TestApplyEditItemZeroAlloc|TestScheduleIncrementalSuffixResumeAllocs)$' -v ./internal/delta
go test -run '^(TestScheduleSteadyStateAllocsBounded|TestBodyAliasHitAllocsBounded|TestFingerprintFormAllocsBounded)$' -v ./internal/service
go test -run '^TestRouterRelayAllocsBounded$' -v ./internal/cluster

# Processor list referee: the paper's processor list (Algorithms 1-2)
# is one capacity-aware argmin, placement.Tracker.PlaceCheapest. It must
# reserve exactly what an independent sorted walk reserves over seeded
# rows with heavy ties, pre-filled trackers, capacity 1, unbounded
# capacity and single processors, and answer -1 reserving nothing when
# every processor is full. The one capacity feasibility check,
# placement.Fits, must not overflow: a capacity of math.MaxInt schedules
# exactly like capacity 0 through every capacity-aware scheduler and
# through the service. Under the race detector; they already ran under
# ./... above, the named gate survives narrower invocations.
echo "== processor list referee (-race) =="
go test -race -run '^(TestPlaceCheapestMatchesSortedWalk|TestFitsNeverOverflows)$' ./internal/placement
go test -race -run '^TestMaxIntCapacitySchedulesLikeUnbounded$' ./internal/verify
go test -race -run '^TestMaxIntCapacityServedLikeUnbounded$' ./internal/service

# Compressed cache gates: the bit-identity referee (a schedule served
# from a resident node, which holds only its pimtab-v2 payload, as a
# memo hit or through a decode of the payload for the request, must
# match the builder's flat-table schedule and a serial run byte for
# byte, without a rebuild) and the build/decode/evict churn stress with
# memo bytes settling exactly, both under the race detector; the
# resident memo hit referee; publish compressing every table (a tiny one
# included) and a decode moving nothing else; the rebuild floor (the
# cache builds >= 3x fewer tables than a flat-table LRU under the same
# budget, admission rule and seeded Zipf sequence); the byte budget
# bounding entries whose tables have no cells; the memo charge covering
# the memo's measured heap footprint; GET /table serving the stored
# payload, and 404 for a table still building; a panic in a request's
# worker failing that request (and a failed build's waiters) with a 500
# instead of the process; plus the DoS-guard regressions proving every
# table-ingesting endpoint (session import, peer-fill adopt, prefill)
# refuses payloads over the cell budget before allocating, and refuses
# the retired pimtab-v1. All already ran under ./... above; the named
# gates survive narrower invocations.
echo "== compressed cache gates (-race) =="
go test -race -run '^(TestColdTierHitBitIdentical|TestCacheTierRaceStress|TestMemoRefereeColdHit|TestTableCacheDemotesAndPromotesUnderBytePressure|TestCacheRebuildFloor|TestImportRejectsOversizedTablePayload|TestZeroCellTablesBoundedByBytes|TestMemoOverheadCoversFootprint|TestTableGetServesStoredPayload|TestWorkerPanicFailsRequest)$' ./internal/service
go test -race -run '^(TestPeerFillRejectsOversizedTablePayload|TestPrefillRejectsOversizedPeerTable|TestPeerFillBodyCapFollowsCellBudget|TestPimtabV1Refused)$' ./internal/cluster

# Table-only cache entries: SCDS, LOMCDS and GOMCDS read only the
# residence table, the grid and the capacity, so the cache keeps no
# cost model. The referee pins table-only and model-backed Problems
# (the exact SCDS* and LOMCDS* ablations included) to
# bit-identical schedules, errors and breakdowns (plus an independent
# counts-based SCDS/LOMCDS and the table-derived aggregate) over seeded
# traces with 1x1 and 1xN arrays, unreferenced items and unbounded,
# tight and infeasible capacities; the heap-bound test fills a service
# with entries through /schedule and holds the live heap to what
# CacheBytes charges plus a fixed slack; a payload decode through the
# alias must decode neither the trace nor rebuild; a payload that does
# not decode drops its node, and the request then rebuilds from its
# trace or, with no decodable trace, fails and builds nothing. All
# under the race detector; they already ran under ./... above, the
# named gate survives narrower invocations.
echo "== table-only cache entries (-race) =="
go test -race -run '^(TestTableOnlyProblemReferee|TestTableOnlyProblemDegenerate)$' ./internal/verify
go test -race -run '^TestAggregateMatchesResidenceSums$' ./internal/cost
go test -race -run '^(TestHotCacheHeapWithinCacheBytes|TestPromotionWithoutTrace|TestAbandonedPromotionFailsWaiters)$' ./internal/service

# Session-lifecycle race gates: an in-flight op racing DELETE
# /session/{id} must end in a clean 404 with the sessions gauge and the
# MaxSessions slot settling exactly once. The stress variant hammers
# the interleaving under the race detector; the deterministic variant
# uses the service's test hook to force the narrow window.
echo "== session delete race gates (-race) =="
go test -race -run '^(TestSessionOpRacingDeleteGets404|TestSessionDeleteRaceStress)$' ./internal/service

# Service admission: every entry point passes one fence, one spec
# check, one checked table decode and one error contract. Close waits
# for a parked session op; a held session build blocks neither a
# memo-hit Schedule nor Stats and still holds its MaxSessions slot;
# racing creates and imports never open past the limit or twice under
# one id; a wrong-fingerprint table payload is refused before its
# table is allocated, and a duplicate-id import before its trace or
# table is decoded; every row of the error contract (statuses,
# Retry-After on both 429 paths, a timed-out prefill fetch as 502)
# through the HTTP handlers; a shard without peer fill answers a
# prefill 501 before reading the body, and the router settles that 501
# instead of re-pushing on every request. Under the race detector; they
# already ran under ./... above, the named gate survives narrower
# invocations.
echo "== service admission (-race) =="
go test -race -run '^(TestCloseWaitsForSessionOp|TestSessionBuildDoesNotBlockService|TestRacingSessionOpensRespectLimit|TestImportWrongFingerprintRefusedBeforeAllocating|TestDuplicateImportRefusedBeforeDecoding|TestPrefillWithoutPeerFill501BeforeBody|TestErrorContract)$' ./internal/service
go test -race -run '^TestRouterSettlesUnsupportedPrefill$' ./internal/cluster

# Router forward path: every status the router generates itself (400,
# 413, 404, the 503s with and without Retry-After, 502, the admin 400
# and 404) pinned through Handler; the fill ledger bounded at its cap,
# a forgotten fill costing exactly one prefill that names its table by
# fingerprint and shape; a shard answering a resident prefill without
# decoding anything and refusing a trace-carrying or shapeless prefill
# body; a prefill on a body-alias hit adopted by the replica; a 501
# prefill settled; replica fills running in parallel; a pooled request
# body recycled only once the handler and every upstream reader let go,
# even when the transport reads it after the response has arrived (the
# full body and its fingerprint form alike). Schedule by fingerprint: a
# repeated /schedule body a shard has answered crosses the second hop
# as its fingerprint form, bit-identical to the full body and a fresh
# service (memo hit and payload decode); a table evicted in between
# costs exactly one resend (412, then the full body) with the same
# bytes; verify in the body or the query always ships the trace; under
# concurrent eviction churn the router's forwards and resends equal the
# shards' fingerprint-form requests and 412s; an absent fingerprint is
# a 412 that counts no miss, build or memo entry; a malformed
# fingerprint-form body is a 400; and a prefill declaring the wrong
# grid cannot poison the memo. Under the race detector; they already
# ran under ./... above, the named gate survives narrower invocations.
echo "== router forward (-race) =="
go test -race -run '^(TestRouterErrorContract|TestRouterFillLedgerBounded|TestRouterPrefillOnBodyHit|TestRouterSettlesUnsupportedPrefill|TestRouterFillsReplicasInParallel|TestSharedBodyReleasedByLastHolder|TestRouterBodyOutlivesRoundTrip|TestRouterFingerprintResendOnEviction|TestRouterVerifyShipsTrace|TestClusterFingerprintCountersSettle)$' ./internal/cluster
go test -race -run '^(TestResidentPrefillDecodesNothing|TestPrefillRefusesBadBodies|TestFingerprintFormBitIdentical|TestFingerprintFormAbsent412|TestFingerprintFormRefusals|TestPrefillWrongGridCannotPoisonMemo)$' ./internal/service

# The cluster referees: the in-process multi-backend harness (router
# over three real services) proving routed, batched, and peer-filled
# responses bit-identical to single-node serial runs with exactly one
# table built per distinct trace, plus kill/restart churn losing no
# accepted request to a non-retried error. The full 100k-spec load
# variant runs as part of ./... above when invoked without -short;
# this named -short gate keeps the choreography covered even under
# narrower invocations.
echo "== cluster differential harness (-race -short) =="
go test -race -short -run '^TestCluster' ./internal/cluster

# The fleet benchmark is its own Go module (fleetbench/, which replaces
# this one), so ./... above does not reach it: an API change that
# breaks the benchmark's build would otherwise pass every gate. Vet and
# test it with the environment fleetbench/run.sh builds it under.
echo "== fleetbench module (vet + test) =="
(cd fleetbench && GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local go vet ./... &&
	GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local go test ./...)

# Metrics scrape gate: boot a real pimserve, issue one schedule request,
# and scrape /metrics, failing unless the expected series are present.
# This exercises the full observability path (registry wiring, stage
# spans, exposition rendering) over an actual socket, not httptest.
echo "== /metrics scrape gate =="
go build -o /tmp/pimserve-check ./cmd/pimserve
SCRAPE_LOG="$(mktemp)"
/tmp/pimserve-check -addr 127.0.0.1:0 >"$SCRAPE_LOG" 2>&1 &
SCRAPE_PID=$!
trap 'kill -TERM $SCRAPE_PID 2>/dev/null; wait $SCRAPE_PID 2>/dev/null || true' EXIT
BASE=""
for _ in $(seq 100); do
	BASE="$(sed -n 's/^pimserve: listening on \([^ ]*\).*/\1/p' "$SCRAPE_LOG")"
	[ -n "$BASE" ] && curl -sf "http://$BASE/healthz" >/dev/null 2>&1 && break
	BASE=""
	sleep 0.1
done
[ -n "$BASE" ] || { echo "check.sh: pimserve never came up"; cat "$SCRAPE_LOG"; exit 1; }
curl -sf -X POST "http://$BASE/schedule" \
	--data-binary @examples/pimserve/request.json >/dev/null
SCRAPE="$(curl -sf "http://$BASE/metrics")"
for series in \
	'pim_requests_total 1' \
	'pim_requests_completed_total 1' \
	'pim_tables_built_total 1' \
	'pim_cache_misses_total 1' \
	'pim_stage_duration_seconds_bucket{stage="decode",le="+Inf"}' \
	'pim_stage_duration_seconds_bucket{stage="table.build",le="+Inf"}' \
	'pim_stage_duration_seconds_bucket{stage="table.encode",le="+Inf"}' \
	'pim_request_duration_seconds_count 1' \
	'pim_trace_alias_misses_total 1' \
	'pim_trace_alias_hits_total 0' \
	'pim_trace_alias_body_hits_total 0' \
	'pim_schedule_memo_misses_total 1' \
	'pim_schedule_memo_hits_total 0'; do
	if ! grep -qF "$series" <<<"$SCRAPE"; then
		echo "check.sh: /metrics scrape missing series: $series"
		echo "$SCRAPE"
		exit 1
	fi
done
kill -TERM $SCRAPE_PID
wait $SCRAPE_PID 2>/dev/null || true
trap - EXIT
rm -f "$SCRAPE_LOG"
echo "metrics scrape gate passed"

# Cluster scrape gate: boot a real three-shard fleet behind pimrouter,
# push a small multi-trace load through the router with pimload, and
# fail unless (a) the router's own pim_router_* series appear on its
# /metrics and (b) the fleet built exactly one residence table per
# distinct trace — the sharding invariant, observed over real sockets
# and separate processes rather than the in-process harness.
echo "== cluster scrape gate =="
CLUSTER_DIR="$(mktemp -d)"
go build -o "$CLUSTER_DIR/pimserve" ./cmd/pimserve
go build -o "$CLUSTER_DIR/pimrouter" ./cmd/pimrouter
go build -o "$CLUSTER_DIR/pimload" ./cmd/pimload
CLUSTER_PIDS=()
cluster_cleanup() {
	for pid in "${CLUSTER_PIDS[@]:-}"; do kill -TERM "$pid" 2>/dev/null || true; done
	for pid in "${CLUSTER_PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
	rm -rf "$CLUSTER_DIR"
}
trap cluster_cleanup EXIT
cluster_addr() { # LOGFILE PROGRAM
	local addr=""
	for _ in $(seq 100); do
		addr="$(sed -n "s/^$2: listening on \([^ ,]*\).*/\1/p" "$1")"
		[ -n "$addr" ] && curl -sf "http://$addr/healthz" >/dev/null 2>&1 && { echo "$addr"; return 0; }
		sleep 0.1
	done
	echo "check.sh: $2 never came up" >&2; cat "$1" >&2; return 1
}
CLUSTER_BACKENDS=""
CLUSTER_SHARDS=()
for i in 1 2 3; do
	"$CLUSTER_DIR/pimserve" -addr 127.0.0.1:0 -peer-fill >"$CLUSTER_DIR/shard$i.log" 2>&1 &
	CLUSTER_PIDS+=($!)
	ADDR="$(cluster_addr "$CLUSTER_DIR/shard$i.log" pimserve)"
	CLUSTER_SHARDS+=("$ADDR")
	CLUSTER_BACKENDS="${CLUSTER_BACKENDS:+$CLUSTER_BACKENDS,}$ADDR"
done
"$CLUSTER_DIR/pimrouter" -addr 127.0.0.1:0 -backends "$CLUSTER_BACKENDS" >"$CLUSTER_DIR/router.log" 2>&1 &
CLUSTER_PIDS+=($!)
ROUTER_ADDR="$(cluster_addr "$CLUSTER_DIR/router.log" pimrouter)"
"$CLUSTER_DIR/pimload" -url "http://$ROUTER_ADDR" -requests 24 -concurrency 4 -traces 6 >/dev/null
ROUTER_SCRAPE="$(curl -sf "http://$ROUTER_ADDR/metrics")"
for series in \
	'pim_router_backends_healthy 3' \
	'pim_router_backends_known 3'; do
	if ! grep -qF "$series" <<<"$ROUTER_SCRAPE"; then
		echo "check.sh: router /metrics missing series: $series"
		echo "$ROUTER_SCRAPE"
		exit 1
	fi
done
# Every one of the 24 client requests is one upstream send (the router
# does not coalesce; identical requests collapse in the owning shard's
# schedule memo), plus one for each fingerprint-form send a shard
# answered 412 and the router resent in full; the latency histogram
# counts exactly those sends, and every routed request resolved through
# the router's alias exactly once (a hit or a miss); body hits, the hits
# that skipped the JSON decode too, are a subset of the hits. The 6
# traces repeat, so some repeats must have gone in fingerprint form.
scrape_val() { sed -n "s/^$1 \([0-9][0-9]*\)\$/\1/p" <<<"$ROUTER_SCRAPE"; }
REQS="$(scrape_val pim_router_requests_total)"
DUR="$(scrape_val pim_router_request_duration_seconds_count)"
AHIT="$(scrape_val pim_router_trace_alias_hits_total)"
AMISS="$(scrape_val pim_router_trace_alias_misses_total)"
ABODY="$(scrape_val pim_router_trace_alias_body_hits_total)"
FWD="$(scrape_val pim_router_fingerprint_forwards_total)"
RESEND="$(scrape_val pim_router_fingerprint_resends_total)"
if [ -z "$REQS" ] || [ -z "$DUR" ] || [ -z "$AHIT" ] || [ -z "$AMISS" ] || [ -z "$ABODY" ] || [ -z "$FWD" ] || [ -z "$RESEND" ]; then
	echo "check.sh: router /metrics missing request accounting series"
	echo "$ROUTER_SCRAPE"
	exit 1
fi
if [ "$REQS" -ne $((24 + RESEND)) ] || [ "$DUR" -ne "$REQS" ] || [ $((AHIT + AMISS)) -ne 24 ] || [ "$FWD" -le 0 ]; then
	echo "check.sh: router accounting: requests=$REQS duration_count=$DUR alias_hits=$AHIT alias_misses=$AMISS fingerprint_forwards=$FWD fingerprint_resends=$RESEND; want requests=24+resends, duration_count=requests, alias hits+misses=24, fingerprint_forwards>0"
	exit 1
fi
if [ "$ABODY" -gt "$AHIT" ]; then
	echo "check.sh: router alias body_hits=$ABODY exceeds hits=$AHIT"
	exit 1
fi
FLEET_BUILT=0
for ADDR in "${CLUSTER_SHARDS[@]}"; do
	BUILT="$(curl -sf "http://$ADDR/stats" | tr -d '\n' | sed -n 's/.*"tables_built": *\([0-9]*\).*/\1/p')"
	FLEET_BUILT=$((FLEET_BUILT + BUILT))
done
if [ "$FLEET_BUILT" -ne 6 ]; then
	echo "check.sh: fleet tables_built=$FLEET_BUILT, want 6 (one per distinct trace)"
	exit 1
fi
echo "cluster scrape gate passed (fleet built 6/6 tables)"

# Cluster failover gate: with replication on (R=2 by default) every
# key's table was pushed to its replica while the fleet was healthy.
# Kill one of the three shards outright (SIGKILL, no drain), wait for
# the health loop to eject it, and re-drive the same load: the fleet
# must keep answering and the surviving shards must not build a single
# new table — failover serves from the replicas that already adopted
# them.
echo "== cluster failover gate =="
PENDING=""
for _ in $(seq 100); do
	PENDING="$(curl -sf "http://$ROUTER_ADDR/stats" | tr -d '\n' | sed -n 's/.*"replica_fills_pending": *\([0-9]*\).*/\1/p')"
	[ "$PENDING" = "0" ] && break
	sleep 0.1
done
[ "$PENDING" = "0" ] || { echo "check.sh: replica fills never settled"; exit 1; }
survivor_built() {
	local total=0 built
	for ADDR in "${CLUSTER_SHARDS[@]:1}"; do
		built="$(curl -sf "http://$ADDR/stats" | tr -d '\n' | sed -n 's/.*"tables_built": *\([0-9]*\).*/\1/p')"
		total=$((total + built))
	done
	echo "$total"
}
PRE_KILL_BUILT="$(survivor_built)"
kill -9 "${CLUSTER_PIDS[0]}" 2>/dev/null || true
wait "${CLUSTER_PIDS[0]}" 2>/dev/null || true
# The scrape is captured before grep reads it: grep -q exits at its
# first match, and under pipefail a curl still writing the rest of the
# chunked /metrics body would then fail the pipeline with SIGPIPE.
for _ in $(seq 100); do
	grep -q '^pim_router_backends_healthy 2$' <<<"$(curl -sf "http://$ROUTER_ADDR/metrics")" && break
	sleep 0.1
done
if ! grep -q '^pim_router_backends_healthy 2$' <<<"$(curl -sf "http://$ROUTER_ADDR/metrics")"; then
	echo "check.sh: router never ejected the killed shard"
	exit 1
fi
"$CLUSTER_DIR/pimload" -url "http://$ROUTER_ADDR" -requests 24 -concurrency 4 -traces 6 >/dev/null
POST_KILL_BUILT="$(survivor_built)"
if [ "$POST_KILL_BUILT" -ne "$PRE_KILL_BUILT" ]; then
	echo "check.sh: survivors built $((POST_KILL_BUILT - PRE_KILL_BUILT)) new tables across a shard kill; replication should make failover rebuild-free"
	exit 1
fi
cluster_cleanup
trap - EXIT
echo "cluster failover gate passed (survivors built 0 new tables across a shard kill)"

# Fuzz smoke: run each fuzz target's engine briefly under the race
# detector on top of the committed seed corpus. `go test -fuzz` accepts
# a pattern matching exactly one target, hence one invocation per
# target. FUZZTIME=0 skips the engine runs (seeds still ran above).
FUZZTIME="${FUZZTIME:-10s}"
if [ "$FUZZTIME" != "0" ]; then
	echo "== fuzz smoke (-race, $FUZZTIME per target) =="
	go test -race -run '^$' -fuzz '^FuzzResidenceKernels$' -fuzztime "$FUZZTIME" ./internal/verify
	go test -race -run '^$' -fuzz '^FuzzLayeredKernels$' -fuzztime "$FUZZTIME" ./internal/verify
	go test -race -run '^$' -fuzz '^FuzzVerifyCost$' -fuzztime "$FUZZTIME" ./internal/verify
	go test -race -run '^$' -fuzz '^FuzzCheckSchedule$' -fuzztime "$FUZZTIME" ./internal/verify
	go test -race -run '^$' -fuzz '^FuzzDeltaApply$' -fuzztime "$FUZZTIME" ./internal/verify
	go test -race -run '^$' -fuzz '^FuzzFingerprint$' -fuzztime "$FUZZTIME" ./internal/trace
	go test -race -run '^$' -fuzz '^FuzzBatchDecode$' -fuzztime "$FUZZTIME" ./internal/service
	go test -race -run '^$' -fuzz '^FuzzTableCodecV2$' -fuzztime "$FUZZTIME" ./internal/cost
fi

echo "check.sh: all gates passed"
