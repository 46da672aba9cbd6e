#!/usr/bin/env bash
# CI-style gates beyond plain ctest, in five stages:
#   1. Sanitizers: builds and runs the concurrency-sensitive tests under
#      ThreadSanitizer and AddressSanitizer (+UBSan) — the obs + sim tests,
#      the road-index and sensor tests (index arithmetic, blocker prefilter),
#      the batched-ops test that exercises the thread-local grad-mode switch,
#      the fused LSTM cell and folded LST-GAT tests (the cell kernel's masked
#      tail loads and row-chunked dispatch, the new backward nodes), the
#      arena/tensor-pool test (cold-vs-warm tape parity, pooled-buffer
#      recycling — the ASan pass is what proves recycled buffers are never
#      used after free), the plan tests (zero allocations in a warm BP-DQN
#      update and LST-GAT step), the serve tests (zero allocations in a warm
#      batch of 32) and the parallel-layer tests, all pinned to
#      HEAD_THREADS=4 so the pool actually races.
#   2. Perf: bench/perf_gates, built at -O3 (Release) and -O2
#      (RelWithDebInfo) and run five times each, alternating. Fails when a
#      disabled HEAD_SCOPE costs more than 5 ns, when the op profiler
#      attributes less than 95% of a profiled BP-DQN update and LST-GAT
#      step to nested rows, or when the median over the run pairs of a GEMM
#      shape's -O2/-O3 GFLOP/s ratio is below 0.7. Then tools/bench_ledger.py check runs
#      perfbench's drive and train workloads once each at the ledger seed
#      and fails when a run is incorrect, has a failed operation, or an
#      end-to-end metric is worse than the worst run recorded in
#      BENCH_drive.json / BENCH_train.json by more than its BENCHMARK.json
#      bound; and when a traced drive run does not serve a batch of 32
#      decisions cheaper per row than a batch of 1.
#   3. Scalar fallback: configures a tree with -DHEAD_SIMD_DISABLE=ON (no
#      AVX2 TU — the portable scalar kernel backend only, as on a non-x86 or
#      pre-AVX2 host) and runs the entire ctest suite against it.
#   4. Flight-recorder smoke: drives head_cli end-to-end — records a
#      forced-collision episode (crash policy) into a scratch dump dir, then
#      replays the dump and requires bitwise parity with the recording.
#   5. Plans off: the full ctest suite with HEAD_PLANS=0, pinning every
#      capture-capable call site to the eager tape.
#
# Builds and ctest runs use one job per CPU.
#
# Usage:
#   tools/check.sh                         # all stages
#   HEAD_SANITIZE=address tools/check.sh   # only the ASan+UBSan sanitizer
#   HEAD_SANITIZE=thread tools/check.sh    # only the TSan sanitizer
#   HEAD_SKIP_PERF=1 tools/check.sh        # skip the perf stage
#   HEAD_SKIP_SCALAR=1 tools/check.sh      # skip the scalar-fallback suite
#   HEAD_SKIP_SMOKE=1 tools/check.sh       # skip the flight-recorder smoke
#   HEAD_SKIP_PLANS=1 tools/check.sh       # skip the plans-off ctest suite
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

# Default: run both sanitizers back to back. HEAD_SANITIZE picks just one.
SANITIZERS=(thread address)
if [[ -n "${HEAD_SANITIZE:-}" ]]; then
  SANITIZERS=("${HEAD_SANITIZE}")
fi

SAN_TESTS=(obs_test obs_trace_test obs_recorder_test obs_timeseries_test
           obs_profiler_test flight_replay_test sim_simulation_test
           sim_models_test sim_road_test sensor_test occlusion_property_test
           nn_batched_ops_test nn_arena_test nn_simd_test nn_plan_test
           nn_lstm_test perception_graph_test perception_oracle_test
           parallel_test parallel_determinism_test serve_test)

for SANITIZER in "${SANITIZERS[@]}"; do
  BUILD_DIR="build-${SANITIZER}san"

  cmake -B "${BUILD_DIR}" -S . -DHEAD_SANITIZE="${SANITIZER}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${SAN_TESTS[@]}"

  echo "== running obs + sim + sensor + nn + parallel tests under ${SANITIZER} sanitizer =="
  for t in "${SAN_TESTS[@]}"; do
    echo "-- ${t} (HEAD_THREADS=4)"
    HEAD_THREADS=4 "${BUILD_DIR}/tests/${t}"
  done
  echo "== ${SANITIZER}-sanitized checks passed =="
done

if [[ "${HEAD_SKIP_PERF:-0}" != "1" ]]; then
  # perf_gates at -O3 (Release) and at -O2 (RelWithDebInfo, the tier-1
  # build), five runs each, alternating. Trees of their own, so switching
  # stages never rebuilds the world.
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf -j "${JOBS}" --target perf_gates
  cmake -B build-o2 -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-o2 -j "${JOBS}" --target perf_gates
  echo "== perf gates: disabled scope, op-profile coverage, -O2/-O3 GEMM parity =="
  GATE_RUNS=()
  for run in 1 2 3 4 5; do
    for tree in build-perf build-o2; do
      out="${tree}/perf_gates_${run}.json"
      "${tree}/bench/perf_gates" > "${out}"
      GATE_RUNS+=("${out}")
    done
  done
  python3 - "${GATE_RUNS[@]}" <<'PY'
import json, statistics, sys
runs = [json.load(open(p)) for p in sys.argv[1:]]
o3, o2 = runs[0::2], runs[1::2]
failed = False
def verdict(ok, line):
    global failed
    failed |= not ok
    print(f"{'ok  ' if ok else 'FAIL'} {line}")
# HEAD_SCOPE sits permanently in every hot path, so with profiling and
# tracing off it must stay a relaxed load and a branch.
ns = statistics.median(r["scope_disabled_ns"] for r in o3)
verdict(ns <= 5.0, f"scope_disabled_ns: {ns:.2f} ns (ceiling 5 ns)")
cov = statistics.median(r["profile_coverage"] for r in o3)
verdict(cov >= 0.95, f"profile_coverage: {cov:.4f} (floor 0.95)")
# Kernels whose speed depends on -O3 (e.g. accumulator arrays that only
# -O3 keeps in registers) run the tier-1 build at a fraction of the rate.
# The host slows for seconds at a time by 20-30%, so each -O2 run is
# compared with the -O3 run just before it, and the gate reads the median
# of those ratios.
for shape in o3[0]["gemm_gflops"]:
    ratio = statistics.median(b["gemm_gflops"][shape] / a["gemm_gflops"][shape]
                              for a, b in zip(o3, o2))
    hi = statistics.median(r["gemm_gflops"][shape] for r in o3)
    lo = statistics.median(r["gemm_gflops"][shape] for r in o2)
    verdict(ratio >= 0.7, f"gemm {shape}: -O2/-O3 {ratio:.2f}x (floor 0.7x; "
                          f"medians {lo:.2f} / {hi:.2f} GFLOP/s)")
sys.exit("perf gates failed" if failed else 0)
PY
  # End to end: perfbench's drive and train workloads against the committed
  # ledger (BENCH_drive.json, BENCH_train.json), plus the serve batching
  # gain from a traced drive run.
  echo "== perf ledger: perfbench drive and train vs BENCH_*.json =="
  python3 tools/bench_ledger.py check
  echo "== perf stage passed =="
fi

if [[ "${HEAD_SKIP_SCALAR:-0}" != "1" ]]; then
  # Scalar-fallback suite: the whole test battery against a binary with no
  # AVX2 TU at all — what a non-x86 / pre-AVX2 host would run. The SIMD
  # parity tests GTEST_SKIP their AVX2 legs; everything else must pass on
  # the portable scalar backend alone.
  SCALAR_BUILD_DIR="build-scalar"
  cmake -B "${SCALAR_BUILD_DIR}" -S . -DHEAD_SIMD_DISABLE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${SCALAR_BUILD_DIR}" -j "${JOBS}"
  echo "== scalar-fallback suite: full ctest with -DHEAD_SIMD_DISABLE=ON =="
  ctest --test-dir "${SCALAR_BUILD_DIR}" --output-on-failure -j "${JOBS}"
  echo "== scalar-fallback suite passed =="
fi

if [[ "${HEAD_SKIP_SMOKE:-0}" != "1" ]]; then
  # Shares the -O3 tree with the perf stage (creates it when perf was
  # skipped); only head_cli needs to build.
  SMOKE_BUILD_DIR="build-perf"
  cmake -B "${SMOKE_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${SMOKE_BUILD_DIR}" -j "${JOBS}" --target head_cli

  DUMP_DIR="${SMOKE_BUILD_DIR}/flight_smoke"
  rm -rf "${DUMP_DIR}"
  echo "== flight-recorder smoke: record a forced collision, then replay =="
  "${SMOKE_BUILD_DIR}/tools/head_cli" --record-dir="${DUMP_DIR}" \
    run dense crash 1 1234
  MANIFEST="$(ls "${DUMP_DIR}"/*.manifest.json | head -1)"
  [[ -n "${MANIFEST}" ]] || { echo "no flight dump produced" >&2; exit 1; }
  "${SMOKE_BUILD_DIR}/tools/head_cli" replay "${MANIFEST}"
  echo "== flight-recorder smoke passed (${MANIFEST}) =="
fi

if [[ "${HEAD_SKIP_PLANS:-0}" != "1" ]]; then
  # Plans-off suite: the whole test battery with HEAD_PLANS=0, so every
  # plan call site takes its eager fallback. Shares the -O3 tree with the
  # perf and smoke stages; building the remaining test targets there is
  # incremental.
  PLANS_BUILD_DIR="build-perf"
  cmake -B "${PLANS_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${PLANS_BUILD_DIR}" -j "${JOBS}"
  echo "== plans-off suite: full ctest with HEAD_PLANS=0 =="
  HEAD_PLANS=0 ctest --test-dir "${PLANS_BUILD_DIR}" --output-on-failure \
    -j "${JOBS}"
  echo "== plans-off suite passed =="
fi
