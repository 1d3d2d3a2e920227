#!/usr/bin/env bash
# Daemon smoke: boot solarschedd, wait for readiness, submit the 4-spec
# reference fleet twice and hold the service to its contract —
#   1. both aggregate digests equal the committed golden
#      (scripts/serve_smoke_golden.txt) — HTTP transport and job plumbing
#      must not change any number;
#   2. the second (warm) submission's per-job cache hit rate is >= 80% —
#      the shared-artifact amortization the daemon exists for;
#   3. /metrics exposes the request counters with the routes actually hit;
#   4. a concurrent decide burst against a -batch-window daemon returns
#      responses byte-identical to the unbatched daemon's, with the
#      coalescer metrics proving batches actually formed;
#   5. mixed decide/run loadgen p99 with batching on stays within the
#      recorded margin of batching off (the forward pass is µs-scale, so
#      on a noisy single-core CI host the gate bounds the coalescer's
#      added tail rather than demanding a win the hardware can't show).
#      Both daemons stay up and take three alternating loadgen rounds of
#      1,000 decides each, so every p99 has ten samples beyond it; the
#      gate is the median of the three per-round p99 ratios;
#   6. SIGTERM drains and the process exits 130 — for both daemons.
set -euo pipefail
cd "$(dirname "$0")/.."

spec=scripts/serve_smoke_spec.json
golden=$(cat scripts/serve_smoke_golden.txt)
addr=127.0.0.1:7468
addr_batched=127.0.0.1:7469
base="http://$addr"
base_batched="http://$addr_batched"
tmp=$(mktemp -d)
pid=
pid_batched=
trap 'rm -rf "$tmp"; kill $pid $pid_batched 2>/dev/null || true' EXIT

go build -o "$tmp/solarschedd" ./cmd/solarschedd

"$tmp/solarschedd" -addr "$addr" 2>"$tmp/daemon.log" &
pid=$!

# wait_ready URL LOG waits for the daemon at URL, printing LOG on failure.
wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "serve_smoke: daemon never became ready" >&2
  cat "$2" >&2
  exit 1
}
wait_ready "$base" "$tmp/daemon.log"

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

# ---- decide micro-batching contract ----------------------------------
# The unbatched daemon supplies the reference decide response; a second
# daemon with -batch-window must give byte-identical answers through the
# coalescer. Both stay up for the loadgen rounds.

decide_body='{
  "graph": "wam", "h": 2,
  "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10},
  "voltages": [3.0, 1.2],
  "period_of_day": 0,
  "active_cap": 0
}'
# decide URL OUT posts the reference decide to the daemon at URL.
decide() {
  curl -fsS "$1/v1/decide" -H 'Content-Type: application/json' -d "$decide_body" -o "$2"
}

decide "$base" "$tmp/decide_unbatched.json"

"$tmp/solarschedd" -addr "$addr_batched" -batch-window 1ms -batch-max 96 2>"$tmp/daemon_batched.log" &
pid_batched=$!
wait_ready "$base_batched" "$tmp/daemon_batched.log"

decide "$base_batched" "$tmp/decide_warm.json" # first decide pays training; burst below coalesces
curls=()
for i in $(seq 1 12); do
  decide "$base_batched" "$tmp/decide_batched_$i.json" &
  curls+=($!)
done
for c in "${curls[@]}"; do
  wait "$c"
done
for i in $(seq 1 12); do
  if ! cmp -s "$tmp/decide_unbatched.json" "$tmp/decide_batched_$i.json"; then
    echo "serve_smoke: batched decide $i diverged from unbatched:" >&2
    cat "$tmp/decide_batched_$i.json" >&2
    echo "vs" >&2
    cat "$tmp/decide_unbatched.json" >&2
    exit 1
  fi
done

p99_of() {
  grep -o '"decide_p99_ms": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
# loadgen URL OUT drives one round of mixed traffic at the daemon at URL.
loadgen() {
  "$tmp/solarschedd" loadgen -mix decide=1000,run=7 -clients 48 -json "$1" >"$2" 2>"$2.log"
}

# Three rounds per side, alternating which side goes first, so a drift of
# the host's speed does not favour one side.
ratios=()
rounds=""
for r in 1 2 3; do
  if [ $((r % 2)) -eq 1 ]; then
    loadgen "$base" "$tmp/loadgen_off_$r.json"
    loadgen "$base_batched" "$tmp/loadgen_on_$r.json"
  else
    loadgen "$base_batched" "$tmp/loadgen_on_$r.json"
    loadgen "$base" "$tmp/loadgen_off_$r.json"
  fi
  off_p99=$(p99_of "$tmp/loadgen_off_$r.json")
  on_p99=$(p99_of "$tmp/loadgen_on_$r.json")
  ratios+=("$(awk -v on="$on_p99" -v off="$off_p99" 'BEGIN { printf "%.4f", on / off }')")
  rounds="$rounds ${on_p99}/${off_p99}ms"
done

curl -fsS "$base_batched/metrics" >"$tmp/metrics_batched.txt"
batched_reqs=$(grep -o '^serve_decide_batched_requests_total [0-9.e+]*' "$tmp/metrics_batched.txt" | grep -o '[0-9.e+]*$' || echo 0)
batches=$(grep -o '^serve_decide_batches_total [0-9.e+]*' "$tmp/metrics_batched.txt" | grep -o '[0-9.e+]*$' || echo 0)
if ! awk -v r="$batched_reqs" -v b="$batches" 'BEGIN { exit !(r >= 13 && b >= 1 && b < r) }'; then
  echo "serve_smoke: coalescer never formed a multi-request batch" >&2
  echo "  serve_decide_batched_requests_total=$batched_reqs serve_decide_batches_total=$batches" >&2
  exit 1
fi

median=$(printf '%s\n' "${ratios[@]}" | sort -g | sed -n 2p)
margin=$(awk -v m="$median" 'BEGIN { printf "%+.1f", 100 * (1 - m) }')
if ! awk -v m="$median" 'BEGIN { exit !(m <= 1.5) }'; then
  echo "serve_smoke: batched decide p99 is ${median}x unbatched (median of rounds, batched/unbatched:$rounds); want at most 1.5x" >&2
  for r in 1 2 3; do
    cat "$tmp/loadgen_on_$r.json" >&2
  done
  exit 1
fi

# stop NAME PID LOG sends SIGTERM and requires the drain's exit 130.
stop() {
  kill -TERM "$2"
  rc=0
  wait "$2" || rc=$?
  if [ "$rc" -ne 130 ]; then
    echo "serve_smoke: $1 exited $rc on SIGTERM, want 130" >&2
    cat "$3" >&2
    exit 1
  fi
}
stop daemon "$pid" "$tmp/daemon.log"
pid=
stop "batched daemon" "$pid_batched" "$tmp/daemon_batched.log"
pid_batched=

echo "serve_smoke: ok (digest $cold, warm cache $hits/$total hits," \
  "decide p99 batched/unbatched:$rounds, median ratio $median, margin ${margin}%)"
