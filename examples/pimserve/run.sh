#!/usr/bin/env bash
# End-to-end pimserve walkthrough: start the server on an ephemeral
# port, schedule the same trace twice (the second request is a cache
# hit), show the verified cost and the cache telemetry, then shut the
# server down gracefully. Requires curl; uses jq to build a request
# from a freshly generated trace when available, otherwise falls back
# to the committed request.json.
set -euo pipefail
cd "$(dirname "$0")/../.."

PORT="${PORT:-18080}"
BASE="http://localhost:$PORT"

go build -o /tmp/pimserve ./cmd/pimserve
/tmp/pimserve -addr "localhost:$PORT" &
SERVER=$!
trap 'kill -TERM $SERVER 2>/dev/null; wait $SERVER 2>/dev/null || true' EXIT

for _ in $(seq 50); do
	curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done

REQ=examples/pimserve/request.json
if command -v jq >/dev/null; then
	# Build the same request from scratch: a pimtrace v1 trace goes
	# inline as a JSON string.
	go run ./cmd/pimtrace -gen lu -n 8 -grid 4x4 |
		jq -Rs '{trace: ., algorithm: "gomcds", capacity: 8}' > /tmp/pimserve-request.json
	REQ=/tmp/pimserve-request.json
fi

echo "== first request (cache miss, verify=true) =="
curl -s -X POST "$BASE/schedule?verify=true" --data-binary @"$REQ" |
	(jq 'del(.centers)' 2>/dev/null || cat)

echo "== second request, same trace (cache hit) =="
curl -s -X POST "$BASE/schedule" --data-binary @"$REQ" |
	(jq '{algorithm, cost, fingerprint, cache_hit}' 2>/dev/null || cat)

echo "== incremental session: create, delta, reschedule =="
# A session owns its own model + residence table; deltas patch them in
# place and reschedules only re-run the DP over the dirtied suffix
# (watch layers_recomputed shrink between the two schedules).
SREQ="$REQ"
if command -v jq >/dev/null; then
	# Unbounded capacity keeps the session on the incremental DP path.
	jq '{trace, algorithm, capacity: 0}' "$REQ" > /tmp/pimserve-session.json
	SREQ=/tmp/pimserve-session.json
fi
CREATED="$(curl -s -X POST "$BASE/session" --data-binary @"$SREQ")"
echo "$CREATED" | (jq '{session_id, num_windows, seq, fingerprint}' 2>/dev/null || cat)
SID="$(echo "$CREATED" | sed -n 's/.*"session_id": *"\([^"]*\)".*/\1/p')"
echo "-- cold schedule (all layers) --"
curl -s -X POST "$BASE/session/$SID/schedule" |
	(jq '{cost, layers_recomputed, cached}' 2>/dev/null || cat)
echo "-- delta: rewrite item 0's volumes in window 0 --"
curl -s -X POST "$BASE/session/$SID/delta" \
	--data '{"op":"edit_item","window":0,"data":0,"volumes":[3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}' |
	(jq '{seq, fingerprint, num_windows}' 2>/dev/null || cat)
echo "-- reschedule (only the edited item's suffix) --"
curl -s -X POST "$BASE/session/$SID/schedule" |
	(jq '{cost, layers_recomputed, cached}' 2>/dev/null || cat)
curl -s -X DELETE "$BASE/session/$SID" -o /dev/null

echo "== /stats: one table built, one cache hit =="
curl -s "$BASE/stats"

echo "== /metrics: request counters and per-stage latency histograms =="
curl -s "$BASE/metrics" | grep -E '^pim_(requests_total|cache_(hits|misses)_total|tables_built_total) '
curl -s "$BASE/metrics" | grep -c '^pim_stage_duration_seconds_bucket' |
	xargs -I{} echo "({} stage histogram buckets; full scrape: curl $BASE/metrics)"

echo "== graceful shutdown =="
kill -TERM $SERVER
wait $SERVER || true
trap - EXIT
echo "done"
