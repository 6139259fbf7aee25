#!/usr/bin/env bash
# Runs the benchmark suites and writes BENCH_eval.json, BENCH_runtime.json,
# BENCH_admission.json, BENCH_store.json, BENCH_stream.json,
# BENCH_analysis.json, BENCH_telemetry.json and BENCH_qos.json at the repo
# root (google-benchmark's --benchmark_format=json), so the perf trajectory
# is tracked across PRs.
#
# Usage: bench/run_benches.sh [build_dir] [benchmark_filter]
#   build_dir         defaults to ./build (configured+built already, or this
#                     script configures and builds it)
#   benchmark_filter  defaults to all benchmarks in each suite

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
FILTER="${2:-.}"

# One row per suite: binary, output file, extra flags. A fixed min_time keeps
# each series comparable across PRs; bench_eval_linear uses the library
# default.
#   bench_eval_linear  core engines, linear-time scaling (Theorem 4.2)
#   bench_runtime      serving throughput: cold vs warm cache, 1 vs N threads
#   bench_admission    hot/cold mix: single-mutex plain LRU vs sharded TinyLFU
#   bench_store        corpus-store rehydration vs cold parse, SIMD kernels
#   bench_stream       first-result latency vs batch full-wrap, 1000-item page
#   bench_analysis     lint/canonicalization/equivalence, canonical-key A/B
#   bench_telemetry    traced vs untraced serving loop; CI gates the pair
#                      within 3% (check_bench_regression.py --overhead-pair)
#   bench_qos          hot-set serving under a cold flood, with and without
#                      fair share; CI gates protected within 10% of baseline
SUITES=(
  "bench_eval_linear BENCH_eval.json"
  "bench_runtime BENCH_runtime.json --benchmark_min_time=0.2"
  "bench_admission BENCH_admission.json --benchmark_min_time=0.2"
  "bench_store BENCH_store.json --benchmark_min_time=0.2"
  "bench_stream BENCH_stream.json --benchmark_min_time=0.2"
  "bench_analysis BENCH_analysis.json --benchmark_min_time=0.2"
  "bench_telemetry BENCH_telemetry.json --benchmark_min_time=0.2"
  "bench_qos BENCH_qos.json --benchmark_min_time=0.2"
)

targets=()
for suite in "${SUITES[@]}"; do
  read -r binary _ <<<"${suite}"
  targets+=("${binary}")
done

# Configure if needed, and always build: a stale binary would silently
# record pre-change numbers into the JSON outputs.
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${BUILD_DIR}" --target "${targets[@]}" -j"$(nproc)"

for suite in "${SUITES[@]}"; do
  read -r binary out flags <<<"${suite}"
  # shellcheck disable=SC2086  # flags is a word list (possibly empty)
  "${BUILD_DIR}/${binary}" \
    --benchmark_filter="${FILTER}" \
    ${flags} \
    --benchmark_format=json \
    --benchmark_out="${REPO_ROOT}/${out}" \
    --benchmark_out_format=json
  echo "wrote ${REPO_ROOT}/${out}"
done
