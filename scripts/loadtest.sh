#!/usr/bin/env bash
# Cluster load snapshot and drift guard: boots three pimserve shards
# and one pimrouter as real separate processes, drives them with
# pimload (a closed-loop singles run, a batched run, then a failover
# run with one shard SIGKILLed), and records router-path latency
# percentiles plus per-shard cache effectiveness in BENCH_CLUSTER.json.
# The run FAILS unless the fleet built exactly one residence table per
# distinct trace, and unless the surviving shards build nothing new
# across the kill (replication makes failover rebuild-free).
#
# Snapshot mode (default): runs the load, prints the summary, rewrites
# BENCH_CLUSTER.json.
#
# Check mode: `scripts/loadtest.sh --check` runs the same load and
# FAILS (exit 1) if the singles or batch p99 regressed more than
# LOADTEST_DRIFT_FACTOR x against the committed snapshot (default 3.0
# — multi-process p99 on a shared CI box is noisy; this is a tripwire
# for routing or caching regressions, not a precise perf gate). It
# never rewrites the snapshot. bench.sh --check delegates here.
#
# Tunables (env): LOADTEST_REQUESTS (default 600 singles),
# LOADTEST_BATCHES (default 60 batch requests x 50 specs),
# LOADTEST_CONCURRENCY (default 8), LOADTEST_TRACES (default 8).
#
# Usage: scripts/loadtest.sh [--check]
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [ "${1:-}" = "--check" ]; then
	CHECK=1
	shift
fi

REQUESTS="${LOADTEST_REQUESTS:-600}"
BATCHES="${LOADTEST_BATCHES:-60}"
BATCH_SIZE=50
CONCURRENCY="${LOADTEST_CONCURRENCY:-8}"
TRACES="${LOADTEST_TRACES:-8}"
FACTOR="${LOADTEST_DRIFT_FACTOR:-3.0}"

# pimload's deterministic generator yields 96 distinct trace shapes
# (4 kernels x 8 sizes x 3 grids) before refusing; beyond that the
# one-table-per-trace invariant below would be counting shapes, not
# traces.
if [ "$TRACES" -gt 96 ]; then
	echo "loadtest.sh: LOADTEST_TRACES=$TRACES exceeds the 96 distinct shapes pimload generates" >&2
	exit 1
fi

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
	for pid in "${PIDS[@]:-}"; do
		kill -TERM "$pid" 2>/dev/null || true
	done
	for pid in "${PIDS[@]:-}"; do
		wait "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
go build -o "$WORK/pimserve" ./cmd/pimserve
go build -o "$WORK/pimrouter" ./cmd/pimrouter
go build -o "$WORK/pimload" ./cmd/pimload

# wait_addr LOGFILE PROGRAM — poll a daemon's log for its concrete
# listen address (both programs print it once the listener is up).
wait_addr() {
	local log="$1" prog="$2" addr=""
	for _ in $(seq 200); do
		addr="$(sed -n "s/^$prog: listening on \([^ ,]*\).*/\1/p" "$log")"
		if [ -n "$addr" ] && curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
			echo "$addr"
			return 0
		fi
		sleep 0.05
	done
	echo "loadtest.sh: $prog never came up" >&2
	cat "$log" >&2
	return 1
}

echo "== boot 3 shards + router =="
BACKENDS=""
SHARD_ADDRS=()
for i in 1 2 3; do
	"$WORK/pimserve" -addr 127.0.0.1:0 -peer-fill >"$WORK/shard$i.log" 2>&1 &
	PIDS+=($!)
	ADDR="$(wait_addr "$WORK/shard$i.log" pimserve)"
	SHARD_ADDRS+=("$ADDR")
	BACKENDS="${BACKENDS:+$BACKENDS,}$ADDR"
done
"$WORK/pimrouter" -addr 127.0.0.1:0 -backends "$BACKENDS" -health-interval 250ms \
	>"$WORK/router.log" 2>&1 &
PIDS+=($!)
ROUTER="$(wait_addr "$WORK/router.log" pimrouter)"
echo "router http://$ROUTER over $BACKENDS"

echo "== singles: $REQUESTS requests, $CONCURRENCY workers, $TRACES traces =="
SINGLES="$("$WORK/pimload" -url "http://$ROUTER" -requests "$REQUESTS" \
	-concurrency "$CONCURRENCY" -traces "$TRACES")"
echo "$SINGLES"

echo "== batches: $BATCHES x $BATCH_SIZE specs =="
BATCHED="$("$WORK/pimload" -url "http://$ROUTER" -requests "$BATCHES" \
	-concurrency "$CONCURRENCY" -traces "$TRACES" -batch "$BATCH_SIZE")"
echo "$BATCHED"

# field JSON KEY — pull one numeric field out of a pimload report.
field() {
	echo "$1" | sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" | head -1
}

echo "== per-shard cache effectiveness =="
BUILT_TOTAL=0
BUILT_LIST=""
for ADDR in "${SHARD_ADDRS[@]}"; do
	STATS="$(curl -sf "http://$ADDR/stats")"
	BUILT="$(echo "$STATS" | tr -d '\n' | sed -n 's/.*"tables_built": *\([0-9]*\).*/\1/p')"
	echo "shard $ADDR tables_built=$BUILT"
	BUILT_TOTAL=$((BUILT_TOTAL + BUILT))
	BUILT_LIST="${BUILT_LIST:+$BUILT_LIST, }$BUILT"
done
# Both pimload runs cycle the same deterministic trace shapes, so the
# fleet must hold exactly one table per distinct trace: more means the
# router split a trace's keyspace across shards, fewer means requests
# were silently dropped.
if [ "$BUILT_TOTAL" -ne "$TRACES" ]; then
	echo "loadtest.sh: fleet tables_built=$BUILT_TOTAL, want $TRACES (one per distinct trace)" >&2
	exit 1
fi
echo "fleet tables_built=$BUILT_TOTAL over $TRACES distinct traces"

# Failover phase: with replication (R=2 default) every key's table has
# a pushed replica. Wait for the fills to settle, SIGKILL shard 1, let
# the health loop eject it, and re-run the singles load: requests fail
# over to replicas, the surviving shards build nothing new, and the
# failover-path p99 lands in the snapshot under the same drift guard.
echo "== failover: kill shard 1, re-drive $REQUESTS singles =="
PENDING=""
for _ in $(seq 200); do
	PENDING="$(curl -sf "http://$ROUTER/stats" | tr -d '\n' | sed -n 's/.*"replica_fills_pending": *\([0-9]*\).*/\1/p')"
	[ "$PENDING" = "0" ] && break
	sleep 0.05
done
[ "$PENDING" = "0" ] || { echo "loadtest.sh: replica fills never settled" >&2; exit 1; }
SURVIVOR_BUILT_PRE=0
for ADDR in "${SHARD_ADDRS[@]:1}"; do
	B="$(curl -sf "http://$ADDR/stats" | tr -d '\n' | sed -n 's/.*"tables_built": *\([0-9]*\).*/\1/p')"
	SURVIVOR_BUILT_PRE=$((SURVIVOR_BUILT_PRE + B))
done
kill -9 "${PIDS[0]}" 2>/dev/null || true
wait "${PIDS[0]}" 2>/dev/null || true
# The scrape is captured before grep reads it: grep -q exits at its
# first match, and under pipefail a curl still writing the rest of the
# chunked /metrics body would then fail the pipeline with SIGPIPE.
for _ in $(seq 200); do
	grep -q '^pim_router_backends_healthy 2$' <<<"$(curl -sf "http://$ROUTER/metrics")" && break
	sleep 0.05
done
if ! grep -q '^pim_router_backends_healthy 2$' <<<"$(curl -sf "http://$ROUTER/metrics")"; then
	echo "loadtest.sh: router never ejected the killed shard" >&2
	exit 1
fi
FAILOVER="$("$WORK/pimload" -url "http://$ROUTER" -requests "$REQUESTS" \
	-concurrency "$CONCURRENCY" -traces "$TRACES")"
echo "$FAILOVER"
SURVIVOR_BUILT_POST=0
for ADDR in "${SHARD_ADDRS[@]:1}"; do
	B="$(curl -sf "http://$ADDR/stats" | tr -d '\n' | sed -n 's/.*"tables_built": *\([0-9]*\).*/\1/p')"
	SURVIVOR_BUILT_POST=$((SURVIVOR_BUILT_POST + B))
done
if [ "$SURVIVOR_BUILT_POST" -ne "$SURVIVOR_BUILT_PRE" ]; then
	echo "loadtest.sh: survivors built $((SURVIVOR_BUILT_POST - SURVIVOR_BUILT_PRE)) new tables across the kill; failover must serve from replicas" >&2
	exit 1
fi
echo "failover: survivors built 0 new tables"

# The host block records where the numbers came from, in the layout
# bench.sh writes into the other BENCH_*.json snapshots.
HOST_CPU="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1)"
SUMMARY="$(cat <<EOF
{
  "benchmark": "cluster-loadtest",
  "host": {
    "cpu": "${HOST_CPU:-unknown}",
    "gomaxprocs": ${GOMAXPROCS:-$(nproc)},
    "go": "$(go env GOVERSION)",
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)"
  },
  "shards": 3,
  "traces": $TRACES,
  "singles_requests": $REQUESTS,
  "singles_p50_us": $(field "$SINGLES" p50_us),
  "singles_p99_us": $(field "$SINGLES" p99_us),
  "singles_requests_per_s": $(field "$SINGLES" requests_per_s),
  "batch_requests": $BATCHES,
  "batch_size": $BATCH_SIZE,
  "batch_p50_us": $(field "$BATCHED" p50_us),
  "batch_p99_us": $(field "$BATCHED" p99_us),
  "batch_specs_per_s": $(field "$BATCHED" specs_per_s),
  "failover_requests": $REQUESTS,
  "failover_p50_us": $(field "$FAILOVER" p50_us),
  "failover_p99_us": $(field "$FAILOVER" p99_us),
  "failover_requests_per_s": $(field "$FAILOVER" requests_per_s),
  "fleet_tables_built": $BUILT_TOTAL,
  "per_shard_tables_built": [$BUILT_LIST]
}
EOF
)"

if [ "$CHECK" = 1 ]; then
	if [ ! -f BENCH_CLUSTER.json ]; then
		echo "loadtest.sh --check: no BENCH_CLUSTER.json snapshot to compare against" >&2
		exit 1
	fi
	for key in singles_p99_us batch_p99_us failover_p99_us; do
		FRESH="$(field "$SUMMARY" "$key")"
		BASE="$(sed -n "s/.*\"$key\": \([0-9.]*\).*/\1/p" BENCH_CLUSTER.json | head -1)"
		if [ -z "$FRESH" ] || [ -z "$BASE" ]; then
			echo "loadtest.sh --check: could not parse $key (fresh='$FRESH' base='$BASE')" >&2
			exit 1
		fi
		echo "loadtest.sh --check: $key fresh ${FRESH}us vs snapshot ${BASE}us (allowed ${FACTOR}x)"
		awk -v fresh="$FRESH" -v base="$BASE" -v factor="$FACTOR" -v key="$key" 'BEGIN {
			if (fresh > base * factor) {
				printf "loadtest.sh --check: REGRESSION in %s: %.0fus > %.2f x %.0fus\n", key, fresh, factor, base > "/dev/stderr"
				exit 1
			}
			printf "loadtest.sh --check: ok (%.2fx of snapshot)\n", fresh / base
		}'
	done
else
	echo "$SUMMARY" > BENCH_CLUSTER.json
	echo
	echo "loadtest.sh: wrote BENCH_CLUSTER.json"
	cat BENCH_CLUSTER.json
fi
