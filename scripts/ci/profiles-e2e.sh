#!/usr/bin/env bash
# Profiles end to end: boot tensatd against the shipped profile files,
# check the discovery endpoints list them, and run one profile-selecting
# job through submit / events / result / trace on /v1/jobs.
# Runs locally as well as in CI; PORT moves the listener.
set -euo pipefail
cd "$(dirname "$0")/../.."

TMP=$(mktemp -d)
DAEMON=
cleanup() {
  [ -n "$DAEMON" ] && kill "$DAEMON" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

URL="http://127.0.0.1:${PORT:-18080}"
go build -o "$TMP/tensatd" ./cmd/tensatd
"$TMP/tensatd" -addr "${URL#http://}" -rules-dir profiles/rules -device-dir profiles/devices \
  > "$TMP/tensatd.log" 2>&1 &
DAEMON=$!
for _ in $(seq 1 100); do
  curl -sf "$URL/v1/healthz" >/dev/null && break
  sleep 0.2
done

curl -sf "$URL/v1/rulesets" > "$TMP/rulesets.json"
for name in algebra fusion taso-default; do grep -q "\"$name\"" "$TMP/rulesets.json"; done
curl -sf "$URL/v1/costmodels" > "$TMP/costmodels.json"
for name in h100 edge a100; do grep -q "\"$name\"" "$TMP/costmodels.json"; done

id=$(curl -sf -X POST "$URL/v1/jobs" -d '{
  "graph": "(output (tanh (matmul 0 (input \"x@64 256\") (weight \"w@256 256\"))))",
  "options": {"ruleset": "taso-single", "cost_model": "a100",
              "extractor": "greedy", "iter_limit": 4, "node_limit": 2000}
}' | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')
test -n "$id"
# The event stream ends with the job's terminal event.
# (grep without -q: it must drain curl's output, or pipefail sees a
# broken pipe.)
curl -sfN "$URL/v1/jobs/$id/events" | grep '^event: done' >/dev/null
curl -sf "$URL/v1/jobs/$id/result" | tee "$TMP/result.json"
grep -q '"speedup_percent"' "$TMP/result.json"
curl -sf "$URL/v1/jobs" | grep '"taso-single"' >/dev/null
curl -sf "$URL/v1/stats" | grep '"taso-single/a100"' >/dev/null
curl -sf "$URL/v1/jobs/$id/trace" | grep '"optimize"' >/dev/null
curl -sf "$URL/metrics" | grep '^tensat_requests_total{ruleset="taso-single",cost_model="a100"} 1$' >/dev/null
echo "profiles e2e ok"
