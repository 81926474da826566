#!/usr/bin/env sh
# Builds and runs one tracked bench, leaving BENCH_<name>.json at the
# repo root so successive changes can track it:
#
#   archive    bbx sharded binary bundle vs streamed CSV archiving
#   engine     engine throughput (bench_engine_throughput)
#   obs        telemetry cost; also writes BENCH_obs_trace.json
#   query      zone-map-pruned group-by vs materialize + stats grouping
#   serve      query-server daemon vs cold single-shot queries
#   stream_io  in-memory TableSink vs streamed CsvStreamSink
#
#   scripts/bench.sh <archive|engine|obs|query|serve|stream_io> [build-dir]
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
NAME="$1"
case "$NAME" in
  engine) TARGET=bench_engine_throughput ;;
  archive|obs|query|serve|stream_io) TARGET="bench_$NAME" ;;
  *)
    echo "usage: scripts/bench.sh <archive|engine|obs|query|serve|stream_io> [build-dir]" >&2
    exit 2
    ;;
esac
BUILD="${2:-$ROOT/build}"

cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)" --target "$TARGET" >/dev/null
"$BUILD/bench/$TARGET" "$ROOT/BENCH_$NAME.json"
