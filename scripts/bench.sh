#!/usr/bin/env bash
# Kernel benchmark snapshots and drift guards.
#
# Snapshot mode (default): runs the four headline comparisons —
# BenchmarkResidenceKernel (separable prefix-sum residence kernel vs
# naive per-cell kernel, 16x16 array), BenchmarkShortestLayeredPath
# (separable min-plus sweep DP vs dense O(P²) relaxation, 16x16 array)
# + BenchmarkGOMCDS (the whole scheduler with the sweep DP, with a host
# block) + the greedy baselines BenchmarkSCDS and BenchmarkLOMCDS
# (ns/op and allocs/op; internal/sched's 256-item, 32-window 4x4
# instance), BenchmarkDeltaApply (incremental session
# rescheduling one edited window vs a from-scratch rebuild, 16x16
# array, 64 windows), and the service paths over a cached table
# (BenchmarkServeSchedule memo-hit, memo-miss and cold closed-loop
# p50/p99 latency and allocs/op, with a host block, plus the zero-alloc
# kernels BenchmarkResidenceRow and BenchmarkSolveBatch/batch, which
# FAIL the snapshot if they ever allocate) — prints the raw
# benchstat-compatible output, and records the metrics in
# BENCH_RESIDENCE.json, BENCH_SCHED.json, BENCH_DELTA.json and
# BENCH_SERVE.json, each with a host block. It then measures the
# compressed table cache into BENCH_CACHE.json: pimtab-v2 codec
# throughput and compression ratio (hard gate: >= 2x on the
# paper-shaped lu/16 table), the cached-table latency in its two cases
# (a decode of the payload for the request, and a memo hit that skips
# it), with a host block, a real pimserve under a seeded Zipf load at a
# tight byte budget (hard gate: it decodes payloads), and the rebuild
# floor test (hard gate: the cache builds >= 3x fewer tables than a
# flat-table LRU under the same budget and Zipf draw). Compare
# two runs with:
#
#	scripts/bench.sh > old.txt   # on the baseline commit
#	scripts/bench.sh > new.txt
#	benchstat old.txt new.txt
#
# Check mode: `scripts/bench.sh --check [count]` runs fresh benchmarks
# and FAILS (exit 1) if a guarded metric (the fast kernels' ns/op, the
# schedulers' ns/op and allocs/op, ...) regressed more than
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

RES_SUMMARY="$(echo "$RAW" | awk -v count="$COUNT" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" '
/^BenchmarkResidenceKernel\/separable/ { sep += $3; nsep++ }
/^BenchmarkResidenceKernel\/naive/     { nai += $3; nnai++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = substr($0, 6) }
END {
	if (nsep == 0 || nnai == 0) {
		print "bench.sh: no residence benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	sep /= nsep; nai /= nnai
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkResidenceKernel\",\n"
	printf "  \"grid\": \"16x16\",\n"
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"gomaxprocs\": %d,\n", gomaxprocs
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"goos\": \"%s\",\n", goos
	printf "    \"goarch\": \"%s\"\n", goarch
	printf "  },\n"
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
RAW_GREEDY="$(go test -run '^$' -bench '^(BenchmarkSCDS|BenchmarkLOMCDS)$' -benchmem -count "$COUNT" ./internal/sched)"
echo "$RAW_GREEDY"

SCHED_SUMMARY="$({ echo "$RAW_DP"; echo "$RAW_GREEDY"; } | awk -v count="$COUNT" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" '
function metric(unit,   i) {
	for (i = 2; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return 0
}
/^BenchmarkSCDS-/   { scds += $3; scdsa += metric("allocs/op"); nscds++ }
/^BenchmarkLOMCDS-/ { lom += $3; loma += metric("allocs/op"); nlom++ }
/^BenchmarkShortestLayeredPath\/sweep\/16x16/ { swp += $3; nswp++ }
/^BenchmarkShortestLayeredPath\/naive\/16x16/ { nai += $3; nnai++ }
/^BenchmarkGOMCDS\/sweep/                     { gsw += $3; ngsw++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = substr($0, 6) }
END {
	if (nswp == 0 || nnai == 0 || ngsw == 0 || nscds == 0 || nlom == 0) {
		print "bench.sh: no scheduler benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	swp /= nswp; nai /= nnai; gsw /= ngsw
	scds /= nscds; scdsa /= nscds; lom /= nlom; loma /= nlom
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkShortestLayeredPath\",\n"
	printf "  \"grid\": \"16x16\",\n"
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"gomaxprocs\": %d,\n", gomaxprocs
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"goos\": \"%s\",\n", goos
	printf "    \"goarch\": \"%s\"\n", goarch
	printf "  },\n"
	printf "  \"count\": %d,\n", count
	printf "  \"sweep_ns_per_op\": %.0f,\n", swp
	printf "  \"naive_ns_per_op\": %.0f,\n", nai
	printf "  \"speedup\": %.2f,\n", nai / swp
	printf "  \"gomcds_sweep_ns_per_op\": %.0f,\n", gsw
	printf "  \"scds_ns_per_op\": %.0f,\n", scds
	printf "  \"scds_allocs_per_op\": %.0f,\n", scdsa
	printf "  \"lomcds_ns_per_op\": %.0f,\n", lom
	printf "  \"lomcds_allocs_per_op\": %.0f\n", loma
	printf "}\n"
}')"

echo
echo "== incremental rescheduling (delta) =="
RAW_DELTA="$(go test -run '^$' -bench '^BenchmarkDeltaApply$' -benchmem -count "$COUNT" .)"
echo "$RAW_DELTA"

DELTA_SUMMARY="$(echo "$RAW_DELTA" | awk -v count="$COUNT" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" '
/^BenchmarkDeltaApply\/incremental/ { inc += $3; ninc++ }
/^BenchmarkDeltaApply\/full/        { ful += $3; nful++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = substr($0, 6) }
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
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"gomaxprocs\": %d,\n", gomaxprocs
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"goos\": \"%s\",\n", goos
	printf "    \"goarch\": \"%s\"\n", goarch
	printf "  },\n"
	printf "  \"count\": %d,\n", count
	printf "  \"incremental_ns_per_op\": %.0f,\n", inc
	printf "  \"full_ns_per_op\": %.0f,\n", ful
	printf "  \"speedup\": %.2f\n", ful / inc
	printf "}\n"
}')"

echo
echo "== service paths (memo hit, memo miss, cold) =="
RAW_SERVE="$(go test -run '^$' -bench '^(BenchmarkServeSchedule|BenchmarkResidenceRow|BenchmarkSolveBatch)$' -benchmem -count "$COUNT" .)"
echo "$RAW_SERVE"

# Custom metrics (p50-us/p99-us) and allocs/op sit at varying field
# positions, so the awk scans each line for the unit token and takes
# the value before it. The two zero-alloc kernels are hard gates: a
# single allocation per op fails the run, snapshot mode included. The
# host block records where the numbers came from: the CPU model go test
# reports, GOMAXPROCS, and the Go version.
SERVE_SUMMARY="$(echo "$RAW_SERVE" | awk -v count="$COUNT" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" '
function metric(unit,   i) {
	for (i = 2; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return 0
}
function path(p) {
	ns[p] += $3; p50[p] += metric("p50-us"); p99[p] += metric("p99-us")
	al[p] += metric("allocs/op"); n[p]++
}
/^BenchmarkServeSchedule\/memo-hit/  { path("memo_hit") }
/^BenchmarkServeSchedule\/memo-miss/ { path("memo_miss") }
/^BenchmarkServeSchedule\/cold/      { path("cold") }
/^BenchmarkServeSchedule\/parallel/ {
	par += $3; pal += metric("allocs/op"); npar++
}
/^BenchmarkResidenceRow/    { rr += $3; rra += metric("allocs/op"); nrr++ }
/^BenchmarkSolveBatch\/batch/ { sb += $3; sba += metric("allocs/op"); nsb++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = substr($0, 6) }
END {
	if (n["memo_hit"] == 0 || n["memo_miss"] == 0 || n["cold"] == 0 || npar == 0 || nrr == 0 || nsb == 0) {
		print "bench.sh: no service benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	if (rra > 0 || sba > 0) {
		printf "bench.sh: zero-alloc kernel regressed: ResidenceRow %.0f allocs, SolveBatch/batch %.0f allocs (want 0)\n", \
			rra / nrr, sba / nsb > "/dev/stderr"
		exit 1
	}
	par /= npar; pal /= npar; rr /= nrr; sb /= nsb
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkServeSchedule\",\n"
	printf "  \"instance\": \"lu/16 on 4x4, gomcds, cached table\",\n"
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"gomaxprocs\": %d,\n", gomaxprocs
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"goos\": \"%s\",\n", goos
	printf "    \"goarch\": \"%s\"\n", goarch
	printf "  },\n"
	printf "  \"count\": %d,\n", count
	split("memo_hit memo_miss cold", paths, " ")
	for (i = 1; i <= 3; i++) {
		p = paths[i]
		printf "  \"%s_ns_per_op\": %.0f,\n", p, ns[p] / n[p]
		printf "  \"%s_p50_us\": %.0f,\n", p, p50[p] / n[p]
		printf "  \"%s_p99_us\": %.0f,\n", p, p99[p] / n[p]
		printf "  \"%s_allocs_per_op\": %.0f,\n", p, al[p] / n[p]
	}
	printf "  \"parallel_ns_per_op\": %.0f,\n", par
	printf "  \"parallel_allocs_per_op\": %.0f,\n", pal
	printf "  \"residence_row_ns_per_op\": %.0f,\n", rr
	printf "  \"residence_row_allocs_per_op\": 0,\n"
	printf "  \"solve_batch_ns_per_op\": %.0f,\n", sb
	printf "  \"solve_batch_allocs_per_op\": 0\n"
	printf "}\n"
}')"

echo
echo "== compressed table cache =="
RAW_CODEC="$(go test -run '^$' -bench '^BenchmarkTableCodecV2$' -benchmem -count "$COUNT" ./internal/cost)"
echo "$RAW_CODEC"
RAW_COLD="$(go test -run '^$' -bench '^BenchmarkScheduleColdHit$' -benchmem -count "$COUNT" ./internal/service)"
echo "$RAW_COLD"

# The rebuild floor: TestCacheRebuildFloor replays the Zipf draw of the
# load below serially, in process, through a Service and through a
# flat-table LRU under the same byte budget and admission rule, and
# fails unless the cache builds >= 3x fewer tables. It logs both build
# counts.
RAW_FLOOR="$(go test -count=1 -run '^TestCacheRebuildFloor$' -v ./internal/service)"
echo "$RAW_FLOOR"
FLOOR_BUILT="$(sed -n 's/.*rebuild floor: cache built \([0-9]*\) tables.*/\1/p' <<<"$RAW_FLOOR")"
FLOOR_FLAT_BUILT="$(sed -n 's/.*flat LRU reference built \([0-9]*\) .*/\1/p' <<<"$RAW_FLOOR")"

# A real pimserve at a tight byte budget (170 KB against a ~1 MB flat,
# ~130 KB compressed working set of 64 tables), driven with the seeded
# Zipf load whose draw the floor test replays. The load runs twice over the same
# traces, first with scds and then with gomcds, so the second pass finds
# nodes whose memo lacks its spec and must decode their payloads
# (cache_promotions); a single spec per trace would answer every request
# on a resident node from the memo.
CACHE_BUDGET="${BENCH_CACHE_BUDGET:-170000}"
CACHE_REQUESTS="${BENCH_CACHE_REQUESTS:-2000}"
CACHE_TRACES="${BENCH_CACHE_TRACES:-64}"
CACHE_ZIPF="${BENCH_CACHE_ZIPF:-1.05}"
CACHE_DIR="$(mktemp -d)"
go build -o "$CACHE_DIR/pimserve" ./cmd/pimserve
go build -o "$CACHE_DIR/pimload" ./cmd/pimload
CACHE_PID=""
cache_cleanup() {
	if [ -n "$CACHE_PID" ]; then
		kill -TERM "$CACHE_PID" 2>/dev/null || true
		wait "$CACHE_PID" 2>/dev/null || true
	fi
	rm -rf "$CACHE_DIR"
}
trap cache_cleanup EXIT
"$CACHE_DIR/pimserve" -addr 127.0.0.1:0 -cache-bytes "$CACHE_BUDGET" >"$CACHE_DIR/pimserve.log" 2>&1 &
CACHE_PID=$!
CACHE_ADDR=""
for _ in $(seq 100); do
	CACHE_ADDR="$(sed -n 's/^pimserve: listening on \([^ ,]*\).*/\1/p' "$CACHE_DIR/pimserve.log")"
	[ -n "$CACHE_ADDR" ] && curl -sf "http://$CACHE_ADDR/healthz" >/dev/null 2>&1 && break
	CACHE_ADDR=""
	sleep 0.1
done
[ -n "$CACHE_ADDR" ] || { echo "bench.sh: pimserve never came up" >&2; cat "$CACHE_DIR/pimserve.log" >&2; exit 1; }
echo "zipf load: 2 x $CACHE_REQUESTS requests (scds, then gomcds), $CACHE_TRACES traces, s=$CACHE_ZIPF, budget ${CACHE_BUDGET}B"
for alg in scds gomcds; do
	"$CACHE_DIR/pimload" -url "http://$CACHE_ADDR" -requests "$CACHE_REQUESTS" -concurrency 8 \
		-traces "$CACHE_TRACES" -zipf "$CACHE_ZIPF" -seed 42 -algorithm "$alg" >/dev/null
done
stat_of() { # KEY
	curl -sf "http://$CACHE_ADDR/stats" | tr -d '\n' | sed -n "s/.*\"$1\": *\([0-9]*\).*/\1/p"
}
TIERED_BUILT="$(stat_of tables_built)"
TIERED_HITS="$(stat_of cache_hits)"
TIERED_PROMOTIONS="$(stat_of cache_promotions)"
cache_cleanup
trap - EXIT
echo "pimserve built $TIERED_BUILT tables ($TIERED_PROMOTIONS payload decodes); floor test: cache $FLOOR_BUILT, flat LRU $FLOOR_FLAT_BUILT"

CACHE_SUMMARY="$({ echo "$RAW_CODEC"; echo "$RAW_COLD"; } | awk -v count="$COUNT" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" \
	-v budget="$CACHE_BUDGET" -v reqs="$CACHE_REQUESTS" -v traces="$CACHE_TRACES" -v zipf="$CACHE_ZIPF" \
	-v tbuilt="$TIERED_BUILT" -v thits="$TIERED_HITS" -v tpromo="$TIERED_PROMOTIONS" \
	-v floorbuilt="$FLOOR_BUILT" -v floorflat="$FLOOR_FLAT_BUILT" '
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
/^BenchmarkScheduleColdHit\/promote/ { cold += $3; cala += metric("allocs/op"); ncold++ }
/^BenchmarkScheduleColdHit\/memo/    { memo += $3; mema += metric("allocs/op"); nmemo++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = substr($0, 6) }
END {
	if (nenc == 0 || ndec == 0 || ncold == 0 || nmemo == 0 || floorbuilt == "" || floorflat == "") {
		print "bench.sh: no cache benchmark samples parsed" > "/dev/stderr"
		exit 1
	}
	enc /= nenc; ratio /= nenc; dec /= ndec; cold /= ncold; cala /= ncold; memo /= nmemo; mema /= nmemo
	# Hard gates, snapshot mode included: keeping every table compressed
	# only earns its decode work if pimtab-v2 at least halves the
	# paper-shaped table (TestCacheRebuildFloor, which already ran,
	# holds the 3x rebuild floor), and the Zipf run must reach the
	# decode path.
	if (ratio < 2) {
		printf "bench.sh: pimtab-v2 compression ratio %.2f below the 2x gate\n", ratio > "/dev/stderr"
		exit 1
	}
	if (tpromo == 0) {
		print "bench.sh: pimserve decoded no payload: the Zipf run does not cover the decode path" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"compressed-table-cache\",\n"
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"gomaxprocs\": %d,\n", gomaxprocs
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"goos\": \"%s\",\n", goos
	printf "    \"goarch\": \"%s\"\n", goarch
	printf "  },\n"
	printf "  \"count\": %d,\n", count
	printf "  \"codec_table\": \"lu/16 on 4x4\",\n"
	printf "  \"codec_encode_ns_per_op\": %.0f,\n", enc
	printf "  \"codec_decode_ns_per_op\": %.0f,\n", dec
	printf "  \"codec_compression_ratio\": %.2f,\n", ratio
	printf "  \"cold_hit_ns_per_op\": %.0f,\n", cold
	printf "  \"cold_hit_allocs_per_op\": %.0f,\n", cala
	printf "  \"cold_memo_hit_ns_per_op\": %.0f,\n", memo
	printf "  \"cold_memo_hit_allocs_per_op\": %.0f,\n", mema
	printf "  \"zipf_budget_bytes\": %d,\n", budget
	printf "  \"zipf_requests\": %d,\n", reqs
	printf "  \"zipf_algorithms\": \"scds,gomcds\",\n"
	printf "  \"zipf_traces\": %d,\n", traces
	printf "  \"zipf_s\": %s,\n", zipf
	printf "  \"tiered_tables_built\": %d,\n", tbuilt
	printf "  \"tiered_cache_hits\": %d,\n", thits
	printf "  \"tiered_promotions\": %d,\n", tpromo
	printf "  \"floor_test_tables_built\": %d,\n", floorbuilt
	printf "  \"floor_test_flat_tables_built\": %d\n", floorflat
	printf "}\n"
}')"

if [ "$CHECK" = 1 ]; then
	check_drift BENCH_RESIDENCE.json separable_ns_per_op "$RES_SUMMARY"
	check_drift BENCH_SCHED.json sweep_ns_per_op "$SCHED_SUMMARY"
	check_drift BENCH_SCHED.json gomcds_sweep_ns_per_op "$SCHED_SUMMARY"
	check_drift BENCH_SCHED.json scds_ns_per_op "$SCHED_SUMMARY"
	check_drift BENCH_SCHED.json scds_allocs_per_op "$SCHED_SUMMARY" allocs/op
	check_drift BENCH_SCHED.json lomcds_ns_per_op "$SCHED_SUMMARY"
	check_drift BENCH_SCHED.json lomcds_allocs_per_op "$SCHED_SUMMARY" allocs/op
	check_drift BENCH_DELTA.json incremental_ns_per_op "$DELTA_SUMMARY"
	check_drift BENCH_SERVE.json memo_hit_ns_per_op "$SERVE_SUMMARY"
	check_drift BENCH_SERVE.json memo_hit_p99_us "$SERVE_SUMMARY" us
	check_drift BENCH_SERVE.json memo_hit_allocs_per_op "$SERVE_SUMMARY" allocs/op
	check_drift BENCH_SERVE.json memo_miss_ns_per_op "$SERVE_SUMMARY"
	check_drift BENCH_SERVE.json cold_ns_per_op "$SERVE_SUMMARY"
	check_drift BENCH_CACHE.json codec_encode_ns_per_op "$CACHE_SUMMARY"
	check_drift BENCH_CACHE.json cold_hit_ns_per_op "$CACHE_SUMMARY"
	check_drift BENCH_CACHE.json cold_memo_hit_ns_per_op "$CACHE_SUMMARY"
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
