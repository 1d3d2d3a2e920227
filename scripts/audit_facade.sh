#!/usr/bin/env bash
# Audit the root facade (solarsched.go): it must compile, be gofmt-clean,
# and re-export the load-bearing API surface — the context-first Run
# pipeline, the sentinel errors, and the fleet subsystem. Exits non-zero
# on any missing symbol so CI catches facade rot when internal packages
# move.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

fmt=$(gofmt -l solarsched.go)
if [ -n "$fmt" ]; then
  echo "audit_facade: gofmt needed on: $fmt" >&2
  fail=1
fi

go build ./... >/dev/null

doc=$(go doc -all .)

# One entry per facade symbol the public API contract promises.
required=(
  # engine + context-first run surface
  Engine EngineConfig Result Scheduler NewEngine
  RunOption RunState EventRecorder
  WithRecorder WithResume WithCheckpointSink WithCheckpointGate WithCheckpointEvery
  # sentinel errors
  ErrCanceled ErrConfigMismatch ErrCorruptCheckpoint
  # fleet subsystem
  FleetSpec FleetJob FleetOptions FleetReport FleetRunResult FleetSummary
  FleetFileSpec FleetRunSpec ArtifactCache NewArtifactCache
  RunFleet LoadFleetSpecFile ReadFleetSpecs
  # core modeling surface
  Trace TimeBase TaskGraph CapBank PlanConfig Network
  NewProposed NewClairvoyant Train SizeBank
  MetricsRegistry FaultConfig
  # online decision surface
  Decide DecideRequest OnlineDecision
)

for sym in "${required[@]}"; do
  if ! grep -qw "$sym" <<<"$doc"; then
    echo "audit_facade: facade is missing required symbol: $sym" >&2
    fail=1
  fi
done

# Deprecated-API check: the RunRecorded/RunWithOptions wrappers were
# removed in favor of the context-first Run(ctx, s, ...RunOption); any
# call site that sneaks back in fails the audit.
deprecated=$(grep -rn '\.RunRecorded(\|\.RunWithOptions(' --include='*.go' . || true)
if [ -n "$deprecated" ]; then
  echo "audit_facade: deprecated Run wrappers in use (migrate to Run(ctx, s, ...RunOption)):" >&2
  echo "$deprecated" >&2
  fail=1
fi

# The seven-positional-argument DecideOnce was replaced by
# Decide(pc, net, DecideRequest); any resurrection fails the audit.
legacy_decide=$(grep -rn 'DecideOnce(' --include='*.go' . || true)
if [ -n "$legacy_decide" ]; then
  echo "audit_facade: removed core.DecideOnce in use (migrate to Decide(pc, net, DecideRequest)):" >&2
  echo "$legacy_decide" >&2
  fail=1
fi

# Orphan check: every internal package the facade imports must back at
# least one re-export; a dangling import means a pruned symbol left its
# import behind (goimports would drop it, but be explicit).
while read -r pkg; do
  short=${pkg##*/}
  if ! grep -q "${short}\." solarsched.go; then
    echo "audit_facade: orphan import in facade: $pkg" >&2
    fail=1
  fi
done < <(grep -o '"solarsched/internal/[a-z]*"' solarsched.go | tr -d '"')

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "audit_facade: ok (${#required[@]} required symbols present)"
