#!/usr/bin/env bash
# Daemon smoke: boot solarschedd, wait for readiness, submit the 4-spec
# reference fleet twice and hold the service to its contract —
#   1. both aggregate digests equal the committed golden
#      (scripts/serve_smoke_golden.txt) — HTTP transport and job plumbing
#      must not change any number;
#   2. the second (warm) submission's per-job cache hit rate is >= 80% —
#      the shared-artifact amortization the daemon exists for;
#   3. /metrics exposes the request counters with the routes actually hit;
#   4. SIGTERM drains and the process exits 130.
set -euo pipefail
cd "$(dirname "$0")/.."

spec=scripts/serve_smoke_spec.json
golden=$(cat scripts/serve_smoke_golden.txt)
addr=127.0.0.1:7468
base="http://$addr"
tmp=$(mktemp -d)
pid=
trap 'rm -rf "$tmp"; kill $pid 2>/dev/null || true' EXIT

go build -o "$tmp/solarschedd" ./cmd/solarschedd

"$tmp/solarschedd" -addr "$addr" 2>"$tmp/daemon.log" &
pid=$!

for _ in $(seq 1 100); do
  if curl -fsS "$base/readyz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
if ! curl -fsS "$base/readyz" >/dev/null 2>&1; then
  echo "serve_smoke: daemon never became ready" >&2
  cat "$tmp/daemon.log" >&2
  exit 1
fi

submit() {
  curl -fsS "$base/v1/runs?wait=1" -d @"$spec" -o "$1"
}

digest_of() {
  grep -o '"aggregate_digest": "[0-9a-f]*"' "$1" | grep -o '[0-9a-f]\{64\}'
}

submit "$tmp/cold.json"
submit "$tmp/warm.json"

cold=$(digest_of "$tmp/cold.json")
warm=$(digest_of "$tmp/warm.json")

if [ "$cold" != "$warm" ]; then
  echo "serve_smoke: cold digest $cold != warm digest $warm" >&2
  exit 1
fi
if [ "$cold" != "$golden" ]; then
  echo "serve_smoke: digest $cold != golden $golden" >&2
  echo "serve_smoke: if the simulation intentionally changed, refresh" >&2
  echo "  scripts/serve_smoke_golden.txt and record why in the commit." >&2
  exit 1
fi

hits=$(grep -o '"cache_hits": [0-9]*' "$tmp/warm.json" | grep -o '[0-9]*')
misses=$(grep -o '"cache_misses": [0-9]*' "$tmp/warm.json" | grep -o '[0-9]*')
total=$((hits + misses))
if [ "$total" -eq 0 ] || [ $((100 * hits / total)) -lt 80 ]; then
  echo "serve_smoke: warm resubmission hit rate ${hits}/${total} below 80%" >&2
  exit 1
fi

curl -fsS "$base/metrics" >"$tmp/metrics.txt"
for needle in \
  'serve_http_requests_total{route="POST /v1/runs"} 2' \
  'serve_jobs_submitted_total 2' \
  'serve_jobs_completed_total 2'; do
  if ! grep -qF "$needle" "$tmp/metrics.txt"; then
    echo "serve_smoke: /metrics missing: $needle" >&2
    grep serve_ "$tmp/metrics.txt" >&2 || true
    exit 1
  fi
done

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=
if [ "$rc" -ne 130 ]; then
  echo "serve_smoke: daemon exited $rc on SIGTERM, want 130" >&2
  cat "$tmp/daemon.log" >&2
  exit 1
fi

echo "serve_smoke: ok (digest $cold, warm cache $hits/$total hits)"
