#!/bin/sh
# Performance snapshot driver: builds Release, runs the executor/compiler
# microbenchmarks, the fig06 throughput comparison, and the fig_generate
# multi-stream generation sweep, and writes the results to BENCH_<date>.json
# at the repo root (wall times, llm_calls, cache hit rates, metrics registry
# snapshots; see docs/PERFORMANCE.md for how to read it, and
# scripts/bench_compare.py for diffing two snapshots).
#   scripts/bench.sh [scale]
# Environment:
#   RELM_BENCH_SCALE    workload scale for fig06/fig_generate (overridden by
#                       argv[1])
#   RELM_BENCH_OUT      output path (default BENCH_<date>.json in repo root)
#   RELM_THREADS        default shared-pool size for the parallel batch API
#   RELM_BENCH_THREADS  fig06 async-pipeline and fig_generate thread sweep
#                       (default "1 2 4 8"); one pipeline_<t>_thread /
#                       streams_<s>_threads_<t> JSON section per entry
set -e
cd "$(dirname "$0")/.."
SCALE="${1:-${RELM_BENCH_SCALE:-1.0}}"
BUILD=build-bench
OUT="${RELM_BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"
RELM_BENCH_THREADS="${RELM_BENCH_THREADS:-1 2 4 8}"
export RELM_BENCH_THREADS

if command -v ninja >/dev/null 2>&1; then
  GEN="-G Ninja"; GEN_NAME="Ninja"
else
  GEN=""; GEN_NAME="Unix Makefiles"
fi
# A build tree configured with a different generator (e.g. Makefiles before
# ninja was installed) makes cmake hard-fail; detect and reconfigure instead
# of aborting the run.
if [ -f "$BUILD/CMakeCache.txt" ]; then
  CACHED_GEN=$(sed -n 's/^CMAKE_GENERATOR:INTERNAL=//p' "$BUILD/CMakeCache.txt")
  if [ -n "$CACHED_GEN" ] && [ "$CACHED_GEN" != "$GEN_NAME" ]; then
    echo "[bench] $BUILD was configured with '$CACHED_GEN'," \
         "reconfiguring for '$GEN_NAME'"
    rm -rf "$BUILD"
  fi
fi
# shellcheck disable=SC2086
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release $GEN >/dev/null
cmake --build "$BUILD" -j --target micro_executor micro_compiler fig06_throughput fig_generate >/dev/null

echo "[bench] micro_executor"
"$BUILD"/bench/micro_executor \
    --benchmark_format=json \
    --benchmark_out="$BUILD"/micro_executor.json \
    --benchmark_out_format=json >/dev/null
echo "[bench] micro_compiler"
"$BUILD"/bench/micro_compiler \
    --benchmark_format=json \
    --benchmark_out="$BUILD"/micro_compiler.json \
    --benchmark_out_format=json >/dev/null
echo "[bench] fig06_throughput (scale=$SCALE)"
# No pipe: fig06 exits non-zero on a determinism regression and set -e
# must see that status.
RELM_BENCH_SCALE="$SCALE" RELM_BENCH_JSON=1 \
    "$BUILD"/bench/fig06_throughput > "$BUILD"/fig06.txt
cat "$BUILD"/fig06.txt
grep '^BENCH_JSON ' "$BUILD"/fig06.txt | sed 's/^BENCH_JSON //' \
    > "$BUILD"/fig06.json

echo "[bench] fig_generate (scale=$SCALE)"
# No pipe: fig_generate exits non-zero when any batched configuration's
# per-stream outputs diverge from the serial baseline, and set -e must see
# that status.
RELM_BENCH_SCALE="$SCALE" RELM_BENCH_JSON=1 \
    "$BUILD"/bench/fig_generate > "$BUILD"/fig_generate.txt
cat "$BUILD"/fig_generate.txt
grep '^BENCH_JSON ' "$BUILD"/fig_generate.txt | sed 's/^BENCH_JSON //' \
    > "$BUILD"/fig_generate.json

# Assemble the snapshot: fig06's end-to-end numbers plus both raw
# google-benchmark reports. Written to a temp file and moved into place
# atomically so a failed run (or a same-day rerun racing a reader) never
# leaves a truncated $OUT behind.
TMP_OUT=$(mktemp "$BUILD/bench_out.XXXXXX")
{
  printf '{\n'
  printf '"date": "%s",\n' "$(date +%Y-%m-%d)"
  printf '"scale": %s,\n' "$SCALE"
  printf '"fig06_throughput": '
  cat "$BUILD"/fig06.json
  printf ',\n"fig_generate": '
  cat "$BUILD"/fig_generate.json
  printf ',\n"micro_executor": '
  cat "$BUILD"/micro_executor.json
  printf ',\n"micro_compiler": '
  cat "$BUILD"/micro_compiler.json
  printf '\n}\n'
} > "$TMP_OUT"

if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TMP_OUT" >/dev/null
fi
mv -f "$TMP_OUT" "$OUT"
echo "[bench] $OUT"

# Keep only the newest snapshot: when writing the default repo-root
# BENCH_<date>.json, prune older-dated siblings (a custom RELM_BENCH_OUT is
# somebody's scratch file — leave the repo-root snapshot alone then).
case "$OUT" in
  BENCH_*.json)
    for old in BENCH_*.json; do
      [ "$old" = "$OUT" ] && continue
      echo "[bench] pruning superseded snapshot $old"
      rm -f "$old"
    done
    ;;
esac
