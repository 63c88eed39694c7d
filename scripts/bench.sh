#!/usr/bin/env bash
# Kernel benchmark snapshots and drift guards.
#
# Snapshot mode (default): runs the four headline comparisons —
# BenchmarkResidenceKernel (separable prefix-sum residence kernel vs
# naive per-cell kernel, 16x16 array), BenchmarkShortestLayeredPath
# + BenchmarkGOMCDS (separable min-plus sweep DP vs dense O(P²)
# relaxation, 16x16 array), BenchmarkDeltaApply (incremental session
# rescheduling one edited window vs a from-scratch rebuild, 16x16
# array, 64 windows), and the service hot path (BenchmarkServeSchedule
# closed-loop p50/p99 latency and allocs/op, plus the zero-alloc
# kernels BenchmarkResidenceRow and BenchmarkSolveBatch/batch, which
# FAIL the snapshot if they ever allocate) — prints the raw
# benchstat-compatible output, and records the metrics in
# BENCH_RESIDENCE.json, BENCH_SCHED.json, BENCH_DELTA.json and
# BENCH_SERVE.json. It then measures the two-tier table cache into
# BENCH_CACHE.json: pimtab-v2 codec throughput and compression ratio
# (hard gate: >= 2x on the paper-shaped lu/16 table), the cold-hit
# promotion latency, and a two-process Zipf rebuild comparison at a
# tight byte budget (hard gate: the cold tier rebuilds >= 3x fewer
# tables than the flat LRU under the identical seeded load). Compare
# two runs with:
#
#	scripts/bench.sh > old.txt   # on the baseline commit
#	scripts/bench.sh > new.txt
#	benchstat old.txt new.txt
#
# Check mode: `scripts/bench.sh --check [count]` runs fresh benchmarks
# and FAILS (exit 1) if either fast kernel's ns/op regressed more than
# BENCH_DRIFT_FACTOR x against its committed snapshot; it never
# rewrites the snapshots. It also delegates to scripts/loadtest.sh
# --check, which guards the cluster-path p99s in BENCH_CLUSTER.json
# (refresh that snapshot with scripts/loadtest.sh). BENCH_DRIFT_FACTOR defaults to 2.0 — generous
# because CI machines differ from the machine that recorded the
# snapshot; it is a tripwire for algorithmic regressions (e.g. a naive
# kernel sneaking back in as default), not a precise perf gate.
# Override per run: BENCH_DRIFT_FACTOR=1.5 scripts/bench.sh --check
#
# Usage: scripts/bench.sh [--check] [count]   (default -count 5; --check defaults to 3)
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [ "${1:-}" = "--check" ]; then
	CHECK=1
	shift
fi

if [ "$CHECK" = 1 ]; then
	COUNT="${1:-3}"
else
	COUNT="${1:-5}"
fi

FACTOR="${BENCH_DRIFT_FACTOR:-2.0}"

# check_drift SNAPSHOT_FILE KEY FRESH_SUMMARY [UNIT] — compare one
# numeric metric between a fresh summary and the committed snapshot.
check_drift() {
	local file="$1" key="$2" summary="$3" unit="${4:-ns/op}"
	if [ ! -f "$file" ]; then
		echo "bench.sh --check: no $file snapshot to compare against" >&2
		exit 1
	fi
	local fresh base
	fresh="$(echo "$summary" | awk -F'[ ,]+' -v k="\"$key\":" '$2 == k { print $3 }')"
	base="$(awk -F'[ ,]+' -v k="\"$key\":" '$2 == k { print $3 }' "$file")"
	if [ -z "$fresh" ] || [ -z "$base" ]; then
		echo "bench.sh --check: could not parse $key (fresh='$fresh' base='$base')" >&2
		exit 1
	fi
	echo
	echo "bench.sh --check: $key fresh ${fresh} ${unit} vs snapshot ${base} ${unit} (allowed ${FACTOR}x)"
	awk -v fresh="$fresh" -v base="$base" -v factor="$FACTOR" -v key="$key" -v unit="$unit" 'BEGIN {
		if (fresh > base * factor) {
			printf "bench.sh --check: REGRESSION in %s: %.0f %s > %.2f x %.0f %s\n", key, fresh, unit, factor, base, unit > "/dev/stderr"
			exit 1
		}
		printf "bench.sh --check: ok (%.2fx of snapshot)\n", fresh / base
	}'
}

echo "== residence kernel =="
RAW="$(go test -run '^$' -bench '^BenchmarkResidenceKernel$' -benchmem -count "$COUNT" .)"
echo "$RAW"

RES_SUMMARY="$(echo "$RAW" | awk -v count="$COUNT" '
/^BenchmarkResidenceKernel\/separable/ { sep += $3; nsep++ }
/^BenchmarkResidenceKernel\/naive/     { nai += $3; nnai++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
END {
	if (nsep == 0 || nnai == 0) {
		print "bench.sh: no residence benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	sep /= nsep; nai /= nnai
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkResidenceKernel\",\n"
	printf "  \"grid\": \"16x16\",\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"count\": %d,\n", count
	printf "  \"separable_ns_per_op\": %.0f,\n", sep
	printf "  \"naive_ns_per_op\": %.0f,\n", nai
	printf "  \"speedup\": %.2f\n", nai / sep
	printf "}\n"
}')"

echo
echo "== layered DP kernel (GOMCDS) =="
RAW_DP="$(go test -run '^$' -bench '^(BenchmarkShortestLayeredPath|BenchmarkGOMCDS)$' -benchmem -count "$COUNT" .)"
echo "$RAW_DP"

SCHED_SUMMARY="$(echo "$RAW_DP" | awk -v count="$COUNT" '
/^BenchmarkShortestLayeredPath\/sweep\/16x16/ { swp += $3; nswp++ }
/^BenchmarkShortestLayeredPath\/naive\/16x16/ { nai += $3; nnai++ }
/^BenchmarkGOMCDS\/sweep/                     { gsw += $3; ngsw++ }
/^BenchmarkGOMCDS\/naive/                     { gna += $3; ngna++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
END {
	if (nswp == 0 || nnai == 0 || ngsw == 0 || ngna == 0) {
		print "bench.sh: no layered-DP benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	swp /= nswp; nai /= nnai; gsw /= ngsw; gna /= ngna
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkShortestLayeredPath\",\n"
	printf "  \"grid\": \"16x16\",\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"count\": %d,\n", count
	printf "  \"sweep_ns_per_op\": %.0f,\n", swp
	printf "  \"naive_ns_per_op\": %.0f,\n", nai
	printf "  \"speedup\": %.2f,\n", nai / swp
	printf "  \"gomcds_sweep_ns_per_op\": %.0f,\n", gsw
	printf "  \"gomcds_naive_ns_per_op\": %.0f,\n", gna
	printf "  \"gomcds_speedup\": %.2f\n", gna / gsw
	printf "}\n"
}')"

echo
echo "== incremental rescheduling (delta) =="
RAW_DELTA="$(go test -run '^$' -bench '^BenchmarkDeltaApply$' -benchmem -count "$COUNT" .)"
echo "$RAW_DELTA"

DELTA_SUMMARY="$(echo "$RAW_DELTA" | awk -v count="$COUNT" '
/^BenchmarkDeltaApply\/incremental/ { inc += $3; ninc++ }
/^BenchmarkDeltaApply\/full/        { ful += $3; nful++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
END {
	if (ninc == 0 || nful == 0) {
		print "bench.sh: no delta benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	inc /= ninc; ful /= nful
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkDeltaApply\",\n"
	printf "  \"grid\": \"16x16\",\n"
	printf "  \"windows\": 64,\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"count\": %d,\n", count
	printf "  \"incremental_ns_per_op\": %.0f,\n", inc
	printf "  \"full_ns_per_op\": %.0f,\n", ful
	printf "  \"speedup\": %.2f\n", ful / inc
	printf "}\n"
}')"

echo
echo "== service hot path =="
RAW_SERVE="$(go test -run '^$' -bench '^(BenchmarkServeSchedule|BenchmarkResidenceRow|BenchmarkSolveBatch)$' -benchmem -count "$COUNT" .)"
echo "$RAW_SERVE"

# Custom metrics (p50-us/p99-us) and allocs/op sit at varying field
# positions, so the awk scans each line for the unit token and takes
# the value before it. The two zero-alloc kernels are hard gates: a
# single allocation per op fails the run, snapshot mode included.
SERVE_SUMMARY="$(echo "$RAW_SERVE" | awk -v count="$COUNT" '
function metric(unit,   i) {
	for (i = 2; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return 0
}
/^BenchmarkServeSchedule\/hot/ {
	hot += $3; hp50 += metric("p50-us"); hp99 += metric("p99-us")
	hal += metric("allocs/op"); nhot++
}
/^BenchmarkServeSchedule\/parallel/ {
	par += $3; pal += metric("allocs/op"); npar++
}
/^BenchmarkResidenceRow/    { rr += $3; rra += metric("allocs/op"); nrr++ }
/^BenchmarkSolveBatch\/batch/ { sb += $3; sba += metric("allocs/op"); nsb++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
END {
	if (nhot == 0 || npar == 0 || nrr == 0 || nsb == 0) {
		print "bench.sh: no service benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	if (rra > 0 || sba > 0) {
		printf "bench.sh: zero-alloc kernel regressed: ResidenceRow %.0f allocs, SolveBatch/batch %.0f allocs (want 0)\n", \
			rra / nrr, sba / nsb > "/dev/stderr"
		exit 1
	}
	hot /= nhot; hp50 /= nhot; hp99 /= nhot; hal /= nhot
	par /= npar; pal /= npar; rr /= nrr; sb /= nsb
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkServeSchedule\",\n"
	printf "  \"instance\": \"lu/16 on 4x4, gomcds, cache-hot\",\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"count\": %d,\n", count
	printf "  \"hot_ns_per_op\": %.0f,\n", hot
	printf "  \"hot_p50_us\": %.0f,\n", hp50
	printf "  \"hot_p99_us\": %.0f,\n", hp99
	printf "  \"hot_allocs_per_op\": %.0f,\n", hal
	printf "  \"parallel_ns_per_op\": %.0f,\n", par
	printf "  \"parallel_allocs_per_op\": %.0f,\n", pal
	printf "  \"residence_row_ns_per_op\": %.0f,\n", rr
	printf "  \"residence_row_allocs_per_op\": 0,\n"
	printf "  \"solve_batch_ns_per_op\": %.0f,\n", sb
	printf "  \"solve_batch_allocs_per_op\": 0\n"
	printf "}\n"
}')"

echo
echo "== two-tier table cache =="
RAW_CODEC="$(go test -run '^$' -bench '^BenchmarkTableCodecV2$' -benchmem -count "$COUNT" ./internal/cost)"
echo "$RAW_CODEC"
RAW_COLD="$(go test -run '^$' -bench '^BenchmarkScheduleColdHit$' -benchmem -count "$COUNT" ./internal/service)"
echo "$RAW_COLD"

# Rebuild comparison: two real pimserve processes at the same tight byte
# budget — one with the cold tier, one flat (-cold-tier=false) — driven
# with the identical seeded Zipf load, so the only variable is what the
# cache does under pressure. The budget (170 KB against a ~1 MB flat
# working set of 64 tables) is where the flat entry-LRU demonstrably
# thrashes; the cold tier holds the whole set compressed.
CACHE_BUDGET="${BENCH_CACHE_BUDGET:-170000}"
CACHE_REQUESTS="${BENCH_CACHE_REQUESTS:-2000}"
CACHE_TRACES="${BENCH_CACHE_TRACES:-64}"
CACHE_ZIPF="${BENCH_CACHE_ZIPF:-1.05}"
CACHE_DIR="$(mktemp -d)"
go build -o "$CACHE_DIR/pimserve" ./cmd/pimserve
go build -o "$CACHE_DIR/pimload" ./cmd/pimload
CACHE_PIDS=()
cache_cleanup() {
	for pid in "${CACHE_PIDS[@]:-}"; do kill -TERM "$pid" 2>/dev/null || true; done
	for pid in "${CACHE_PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
	rm -rf "$CACHE_DIR"
}
trap cache_cleanup EXIT
cache_addr() { # LOGFILE
	local addr=""
	for _ in $(seq 100); do
		addr="$(sed -n 's/^pimserve: listening on \([^ ,]*\).*/\1/p' "$1")"
		[ -n "$addr" ] && curl -sf "http://$addr/healthz" >/dev/null 2>&1 && { echo "$addr"; return 0; }
		sleep 0.1
	done
	echo "bench.sh: pimserve never came up" >&2; cat "$1" >&2; return 1
}
"$CACHE_DIR/pimserve" -addr 127.0.0.1:0 -cache-bytes "$CACHE_BUDGET" \
	>"$CACHE_DIR/tiered.log" 2>&1 &
CACHE_PIDS+=($!)
"$CACHE_DIR/pimserve" -addr 127.0.0.1:0 -cache-bytes "$CACHE_BUDGET" -cold-tier=false \
	>"$CACHE_DIR/flat.log" 2>&1 &
CACHE_PIDS+=($!)
TIERED_ADDR="$(cache_addr "$CACHE_DIR/tiered.log")"
FLAT_ADDR="$(cache_addr "$CACHE_DIR/flat.log")"
echo "zipf load: $CACHE_REQUESTS requests, $CACHE_TRACES traces, s=$CACHE_ZIPF, budget ${CACHE_BUDGET}B"
"$CACHE_DIR/pimload" -url "http://$TIERED_ADDR" -requests "$CACHE_REQUESTS" -concurrency 8 \
	-traces "$CACHE_TRACES" -zipf "$CACHE_ZIPF" -seed 42 >/dev/null
"$CACHE_DIR/pimload" -url "http://$FLAT_ADDR" -requests "$CACHE_REQUESTS" -concurrency 8 \
	-traces "$CACHE_TRACES" -zipf "$CACHE_ZIPF" -seed 42 >/dev/null
stat_of() { # ADDR KEY
	curl -sf "http://$1/stats" | tr -d '\n' | sed -n "s/.*\"$2\": *\([0-9]*\).*/\1/p"
}
TIERED_BUILT="$(stat_of "$TIERED_ADDR" tables_built)"
TIERED_HITS="$(stat_of "$TIERED_ADDR" cache_hits)"
TIERED_PROMOTIONS="$(stat_of "$TIERED_ADDR" cache_promotions)"
FLAT_BUILT="$(stat_of "$FLAT_ADDR" tables_built)"
FLAT_HITS="$(stat_of "$FLAT_ADDR" cache_hits)"
cache_cleanup
trap - EXIT
echo "two-tier built $TIERED_BUILT tables ($TIERED_PROMOTIONS promotions); flat built $FLAT_BUILT"

CACHE_SUMMARY="$({ echo "$RAW_CODEC"; echo "$RAW_COLD"; } | awk -v count="$COUNT" \
	-v budget="$CACHE_BUDGET" -v reqs="$CACHE_REQUESTS" -v traces="$CACHE_TRACES" -v zipf="$CACHE_ZIPF" \
	-v tbuilt="$TIERED_BUILT" -v thits="$TIERED_HITS" -v tpromo="$TIERED_PROMOTIONS" \
	-v fbuilt="$FLAT_BUILT" -v fhits="$FLAT_HITS" '
function metric(unit,   i) {
	for (i = 2; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return 0
}
/^BenchmarkTableCodecV2\/encode/ { enc += $3; ratio += metric("ratio"); nenc++ }
/^BenchmarkTableCodecV2\/decode/ { dec += $3; ndec++ }
/^BenchmarkScheduleColdHit/      { cold += $3; cala += metric("allocs/op"); ncold++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
END {
	if (nenc == 0 || ndec == 0 || ncold == 0) {
		print "bench.sh: no cache benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	enc /= nenc; ratio /= nenc; dec /= ndec; cold /= ncold; cala /= ncold
	# Hard gates, snapshot mode included: the compressed cold tier only
	# earns its complexity if pimtab-v2 at least halves the paper-shaped
	# table and the tight-budget Zipf run rebuilds at least 3x less than
	# the flat LRU.
	if (ratio < 2) {
		printf "bench.sh: pimtab-v2 compression ratio %.2f below the 2x gate\n", ratio > "/dev/stderr"
		exit 1
	}
	if (fbuilt < 3 * tbuilt) {
		printf "bench.sh: two-tier rebuilds %d vs flat %d: below the 3x rebuild gate\n", tbuilt, fbuilt > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"two-tier-table-cache\",\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"count\": %d,\n", count
	printf "  \"codec_table\": \"lu/16 on 4x4\",\n"
	printf "  \"codec_encode_ns_per_op\": %.0f,\n", enc
	printf "  \"codec_decode_ns_per_op\": %.0f,\n", dec
	printf "  \"codec_compression_ratio\": %.2f,\n", ratio
	printf "  \"cold_hit_ns_per_op\": %.0f,\n", cold
	printf "  \"cold_hit_allocs_per_op\": %.0f,\n", cala
	printf "  \"zipf_budget_bytes\": %d,\n", budget
	printf "  \"zipf_requests\": %d,\n", reqs
	printf "  \"zipf_traces\": %d,\n", traces
	printf "  \"zipf_s\": %s,\n", zipf
	printf "  \"tiered_tables_built\": %d,\n", tbuilt
	printf "  \"tiered_cache_hits\": %d,\n", thits
	printf "  \"tiered_promotions\": %d,\n", tpromo
	printf "  \"flat_tables_built\": %d,\n", fbuilt
	printf "  \"flat_cache_hits\": %d,\n", fhits
	printf "  \"rebuild_improvement\": %.2f\n", fbuilt / tbuilt
	printf "}\n"
}')"

if [ "$CHECK" = 1 ]; then
	check_drift BENCH_RESIDENCE.json separable_ns_per_op "$RES_SUMMARY"
	check_drift BENCH_SCHED.json sweep_ns_per_op "$SCHED_SUMMARY"
	check_drift BENCH_SCHED.json gomcds_sweep_ns_per_op "$SCHED_SUMMARY"
	check_drift BENCH_DELTA.json incremental_ns_per_op "$DELTA_SUMMARY"
	check_drift BENCH_SERVE.json hot_ns_per_op "$SERVE_SUMMARY"
	check_drift BENCH_SERVE.json hot_p99_us "$SERVE_SUMMARY" us
	check_drift BENCH_SERVE.json hot_allocs_per_op "$SERVE_SUMMARY" allocs/op
	check_drift BENCH_CACHE.json codec_encode_ns_per_op "$CACHE_SUMMARY"
	check_drift BENCH_CACHE.json cold_hit_ns_per_op "$CACHE_SUMMARY"
	check_drift BENCH_CACHE.json tiered_tables_built "$CACHE_SUMMARY" tables
	echo
	echo "== cluster loadtest drift (scripts/loadtest.sh --check) =="
	scripts/loadtest.sh --check
else
	echo "$RES_SUMMARY" > BENCH_RESIDENCE.json
	echo "$SCHED_SUMMARY" > BENCH_SCHED.json
	echo "$DELTA_SUMMARY" > BENCH_DELTA.json
	echo "$SERVE_SUMMARY" > BENCH_SERVE.json
	echo "$CACHE_SUMMARY" > BENCH_CACHE.json
	echo
	echo "bench.sh: wrote BENCH_RESIDENCE.json, BENCH_SCHED.json, BENCH_DELTA.json, BENCH_SERVE.json and BENCH_CACHE.json"
	cat BENCH_RESIDENCE.json BENCH_SCHED.json BENCH_DELTA.json BENCH_SERVE.json BENCH_CACHE.json
fi
