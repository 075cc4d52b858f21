#!/usr/bin/env bash
# conformance.sh — run the differential sim-vs-real conformance harness
# (internal/conformance). Two modes:
#
#   scripts/conformance.sh            # smoke: fixed seeds, -race, <60s
#   scripts/conformance.sh long       # long: many fresh seeds + go fuzz
#
# Replaying a failure: every conformance error message is prefixed with
# its family and seed ("faulty seed 1234: ..."). Re-run that seed,
# verbosely, in every family on all worker counts with:
#
#   CONFORMANCE_SEED=1234 scripts/conformance.sh
#
# Long-mode knobs (env):
#   CONFORMANCE_COUNT  seeds to sweep (default 300)
#   CONFORMANCE_BASE   first seed of the sweep (default 1000)
#   FUZZTIME           go test -fuzz budget per target (default 30s)

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-smoke}"

if [[ -n "${CONFORMANCE_SEED:-}" ]]; then
  echo ">> replaying seed $CONFORMANCE_SEED" >&2
  exec go test ./internal/conformance/ -race -count=1 -v -run 'TestConformanceSmoke$'
fi

case "$MODE" in
smoke)
  # The whole package under the race detector: the smoke table of
  # conformance_test.go (every family — base, traced, replicated,
  # cancelled, faulty, snapshot — at fixed seeds with schedule
  # perturbation), the generator pins, the oracle's positive and
  # negative tests and the analyzer's broken-program checks. This is the
  # CI gate; the seed list includes seeds that reproduce every scheduler
  # bug the harness has caught so far.
  go test ./internal/conformance/ -race -count=1
  ;;
long)
  COUNT="${CONFORMANCE_COUNT:-300}"
  BASE="${CONFORMANCE_BASE:-1000}"
  FUZZTIME="${FUZZTIME:-30s}"
  echo ">> long sweep: $COUNT seeds from $BASE, -race" >&2
  CONFORMANCE_COUNT="$COUNT" CONFORMANCE_BASE="$BASE" \
    go test -tags conformance ./internal/conformance/ -race -count=1 \
    -run 'TestConformanceLong' -timeout 30m
  echo ">> native fuzzing: $FUZZTIME per target" >&2
  go test ./internal/conformance/ -run '^$' -fuzz 'FuzzRoundTrip' -fuzztime "$FUZZTIME"
  go test ./internal/conformance/ -run '^$' -fuzz 'FuzzConformance' -fuzztime "$FUZZTIME"
  ;;
*)
  echo "usage: scripts/conformance.sh [smoke|long]" >&2
  exit 2
  ;;
esac
