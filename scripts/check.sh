#!/usr/bin/env sh
# Tier-1 verify line: configure, build, run the test suite.
#
#   scripts/check.sh              # full suite (unit + property + acceptance)
#   scripts/check.sh --fast       # unit-labelled tests only (quick loop)
#   scripts/check.sh --sanitize   # ASan+UBSan build, unit+fault+integration
#   scripts/check.sh --tsan       # TSan build, unit+fault, telemetry armed
#   scripts/check.sh [--fast] -R core_engine   # extra args go to ctest
#
# Build directory defaults to ./build (./build-asan for --sanitize,
# ./build-tsan for --tsan); override with BUILD_DIR=...
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

LABEL_ARGS=""
CMAKE_ARGS=""
DEFAULT_BUILD="$ROOT/build"
if [ "$1" = "--fast" ]; then
  LABEL_ARGS="-L unit"
  shift
elif [ "$1" = "--sanitize" ]; then
  # The crash-recovery and serving stories only count if they hold with
  # the memory checkers watching: fault-injection, unit, the full
  # campaign->archive->daemon integration suite, and the PMU
  # counter-determinism property under ASan/UBSan.
  LABEL_ARGS="-L unit|fault|integration|pmu"
  CMAKE_ARGS="-DCMAKE_BUILD_TYPE=Debug -DCALIPERS_SANITIZE=ON"
  DEFAULT_BUILD="$ROOT/build-asan"
  shift
elif [ "$1" = "--tsan" ]; then
  # Telemetry is only lock-free-by-construction if ThreadSanitizer
  # agrees: run the unit and fault suites with the metrics registry and
  # the trace rings armed, so every relaxed-atomic counter bump and
  # release-published trace slot is exercised under the checker.  The
  # pmu label rides along: counter seams + the obs bridge under TSan.
  LABEL_ARGS="-L unit|fault|pmu"
  CMAKE_ARGS="-DCMAKE_BUILD_TYPE=Debug -DCALIPERS_TSAN=ON"
  DEFAULT_BUILD="$ROOT/build-tsan"
  CAL_METRICS=on
  export CAL_METRICS
  CAL_TRACE="${BUILD_DIR:-$ROOT/build-tsan}/tsan_trace.json"
  export CAL_TRACE
  shift
fi
BUILD="${BUILD_DIR:-$DEFAULT_BUILD}"

JOBS="$(nproc 2>/dev/null || echo 4)"
cmake -B "$BUILD" -S "$ROOT" $CMAKE_ARGS
# A bare -j sets no job limit: a from-scratch sanitizer build then runs
# dozens of compilers at once and can exhaust the machine's memory.
cmake --build "$BUILD" -j "$JOBS"
# ctest's bare -j (no value) would swallow the next flag, so pass the
# job count explicitly.
cd "$BUILD" && exec ctest --output-on-failure -j "$JOBS" $LABEL_ARGS "$@"
