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

# Hot-path allocation pins: the steady-state kernels (residence-row
# pricing, batched sweep DP, resumable DP, session delta patch) must be
# exactly zero allocs/op, and the cache-hot full-service Schedule call
# must stay inside its fixed budget. They already ran under ./... above;
# this named gate re-runs them without the race runtime so the pins
# measure the production allocator, and survives narrower invocations.
echo "== allocation pins (no race) =="
go test -run '^(TestSolveBatchZeroAlloc|TestSolveFromIntoZeroAlloc)$' -v ./internal/costgraph
go test -run '^(TestResidenceRowIntoZeroAlloc|TestPatchEditItemZeroAlloc|TestPatchRemoveWindowZeroAlloc)$' -v ./internal/cost
go test -run '^(TestApplyEditItemZeroAlloc|TestScheduleIncrementalSuffixResumeAllocs)$' -v ./internal/delta
go test -run '^TestScheduleSteadyStateAllocsBounded$' -v ./internal/service

# Two-tier cache gates: the bit-identity referee (a schedule served via
# a cold-tier promotion must match the flat-table schedule byte for
# byte, without a rebuild) and the demote/promote/evict churn stress,
# both under the race detector; the byte budget bounding entries whose
# tables have no cells; GET /table serving pimtab-v2 from either tier;
# plus the DoS-guard regressions proving every table-ingesting endpoint
# (session import, peer-fill adopt, prefill) refuses payloads over the
# cell budget before allocating, and refuses the retired pimtab-v1.
# All already ran under ./... above; the named gates survive narrower
# invocations.
echo "== two-tier cache gates (-race) =="
go test -race -run '^(TestColdTierHitBitIdentical|TestCacheTierRaceStress|TestImportRejectsOversizedTablePayload|TestZeroCellTablesBoundedByBytes|TestTableGetServesV2HotAndCold)$' ./internal/service
go test -race -run '^(TestPeerFillRejectsOversizedTablePayload|TestPrefillRejectsOversizedPeerTable|TestPeerFillBodyCapFollowsCellBudget|TestPimtabV1Refused)$' ./internal/cluster

# Session-lifecycle race gates: an in-flight op racing DELETE
# /session/{id} must end in a clean 404 with the sessions gauge and the
# MaxSessions slot settling exactly once. The stress variant hammers
# the interleaving under the race detector; the deterministic variant
# uses the service's test hook to force the narrow window.
echo "== session delete race gates (-race) =="
go test -race -run '^(TestSessionOpRacingDeleteGets404|TestSessionDeleteRaceStress)$' ./internal/service

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
	'pim_request_duration_seconds_count 1'; do
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
# With request coalescing, identical in-flight singles ride one
# upstream call: upstream sends plus coalesced joins must account for
# every one of the 24 client requests, and the latency histogram
# counts upstream sends only.
scrape_val() { sed -n "s/^$1 \([0-9][0-9]*\)\$/\1/p" <<<"$ROUTER_SCRAPE"; }
REQS="$(scrape_val pim_router_requests_total)"
COAL="$(scrape_val pim_router_coalesced_total)"
DUR="$(scrape_val pim_router_request_duration_seconds_count)"
if [ -z "$REQS" ] || [ -z "$COAL" ] || [ -z "$DUR" ]; then
	echo "check.sh: router /metrics missing request accounting series"
	echo "$ROUTER_SCRAPE"
	exit 1
fi
if [ $((REQS + COAL)) -ne 24 ] || [ "$DUR" -ne "$REQS" ]; then
	echo "check.sh: router accounting: requests=$REQS coalesced=$COAL duration_count=$DUR; want requests+coalesced=24, duration_count=requests"
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
for _ in $(seq 100); do
	curl -sf "http://$ROUTER_ADDR/metrics" | grep -q '^pim_router_backends_healthy 2$' && break
	sleep 0.1
done
if ! curl -sf "http://$ROUTER_ADDR/metrics" | grep -q '^pim_router_backends_healthy 2$'; then
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
