#!/usr/bin/env bash
# Learn smoke: the continuous-learning loop end to end under the race
# detector — telemetry capture → DP-teacher retraining → canary sim +
# shadow gate → promotion → instant rollback:
#   1. drifted telemetry trains a candidate that beats the serving
#      network's realized DMR on a held-out drifted trace and is
#      auto-promoted (TestContinuousLearningPromotesUnderDrift);
#   2. without drift the gate holds, nothing is promoted, and serving
#      stays on the base network (TestGateHoldsWithoutDrift);
#   3. a shadow-gated candidate promotes only after scoring enough live
#      decisions against the serving model (TestShadowGatedPromotion);
#   4. a promoted model with a new digest is served on the very next
#      /v1/decide without a daemon restart, and rollback restores
#      bit-identical answers (TestDecideServesPromotedModelWithoutRestart);
#   5. an idle learning loop never perturbs serving — answers are
#      byte-equal to a loop-less daemon's (TestDecideWithIdleLearnLoop…).
# The whole learn package runs under -race so the telemetry flusher,
# shadow worker, and trainer goroutines are exercised with checking on.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -race -timeout 15m -count=1 ./internal/learn/

go test -race -timeout 10m -count=1 \
  -run 'TestDecideServesPromotedModelWithoutRestart|TestDecideWithIdleLearnLoopBitIdentical' \
  ./internal/serve/

echo "learn_smoke: ok"
