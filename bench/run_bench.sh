#!/usr/bin/env bash
# Runs the microbenchmark suites and emits machine-readable results.
#
# Usage: bench/run_bench.sh [sim_output.json] [sched_output.json] [dp_output.json] [chaos_output.json] [sweep_output.json] [shardsim_output.json] [overload_output.json] [scenario_output.json]
#   BUILD_DIR=build   build tree containing bench/bench_micro_sim,
#                     bench/bench_micro_scheduler, bench/bench_micro_dataplane
#                     and (with BENCH_CHAOS=1) bench/bench_micro_chaos
#   REPS=1            benchmark repetitions
#   BENCH_CHAOS=1     also run the fault-injection suite: frames/s, p99
#                     completion latency and allocs/frame with the injector
#                     off vs armed-idle vs actively firing (-> BENCH_chaos.json)
#   BENCH_SWEEP=1     (default) run the experiment-sweep suite: the Fig. 5
#                     grid through the sweep runner
#                     (-> BENCH_sweep.json, deterministically merged — the
#                     bytes are identical for any thread count)
#   BENCH_SWEEP_GRID=fig5      built-in grid or JSON grid file for the sweep
#   BENCH_SWEEP_THREADS=nproc  sweep worker threads
#   BENCH_SHARDSIM=1  (default) run the sharded-simulation sweep: simulated
#                     frames/s vs shard count at 1k and 10k nodes
#                     (-> BENCH_shardsim.json; the digest column is an
#                     inline differential — any mismatch aborts the run)
#   BENCH_SHARDSIM_SHARDS=1,2,4,8  shard counts for the sweep
#   BENCH_SHARDSIM_MODES=fixed,adaptive  window-bound modes (the adaptive
#                     ECSB bound must reproduce the fixed bound's digests
#                     bit-for-bit; the binary aborts on any mismatch)
#   BENCH_SCENARIO=1  run the scenario-engine flash-crowd study: per-phase
#                     SLO attainment under the builtin 2x flash crowd across
#                     the control-policy bundles none/admit/degrade/full
#                     (-> BENCH_scenario.json). Every policy cell runs at
#                     shard counts 1,2,4 and the deterministic metrics dump
#                     must be byte-identical across them; the binary also
#                     enforces the paper-shape gates (full >= 99% peak
#                     attainment, none collapses) and aborts otherwise
#   BENCH_OVERLOAD=1  run the overload-control axis of the chaos binary:
#                     goodput vs offered load at 1x/1.5x/2x of analytic
#                     capacity across the §14 policies (none/shed/admit/
#                     degrade), plus the 0-allocs/frame guard on the
#                     admission reject path (-> BENCH_overload.json)
#
# The JSON lands at BENCH_sim.json / BENCH_sched.json / BENCH_dataplane.json
# by default so the perf trajectory of the event engine, the admission
# control plane and the per-frame data plane is tracked in-repo from PR to
# PR. The dataplane suite also hard-aborts if a steady-state frame performs
# any heap allocation, so a regression of the allocation-free fast path
# fails the run rather than just shifting a number.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SIM_OUT="${1:-BENCH_sim.json}"
SCHED_OUT="${2:-BENCH_sched.json}"
DP_OUT="${3:-BENCH_dataplane.json}"
CHAOS_OUT="${4:-BENCH_chaos.json}"
SWEEP_OUT="${5:-BENCH_sweep.json}"
SHARDSIM_OUT="${6:-BENCH_shardsim.json}"
OVERLOAD_OUT="${7:-BENCH_overload.json}"
SCENARIO_OUT="${8:-BENCH_scenario.json}"
REPS="${REPS:-1}"

run_suite() {
  local bin="$1" out="$2" filter="${3:-}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  "${bin}" \
    ${filter:+--benchmark_filter="${filter}"} \
    --benchmark_repetitions="${REPS}" \
    --benchmark_report_aggregates_only=false \
    --benchmark_out_format=json \
    --benchmark_out="${out}"
  echo "wrote ${out}"
}

run_suite "${BUILD_DIR}/bench/bench_micro_sim" "${SIM_OUT}"
run_suite "${BUILD_DIR}/bench/bench_micro_scheduler" "${SCHED_OUT}"
run_suite "${BUILD_DIR}/bench/bench_micro_dataplane" "${DP_OUT}"
if [[ "${BENCH_CHAOS:-0}" == "1" ]]; then
  run_suite "${BUILD_DIR}/bench/bench_micro_chaos" "${CHAOS_OUT}" '-BM_Overload.*'
fi

# Overload-control axis (same binary as the chaos suite, different fixture):
# open-loop offered load at 1x/1.5x/2x of analytic capacity across the
# overload policies. The AllocFree guard aborts the run if the admission
# reject path performs any steady-state heap allocation.
if [[ "${BENCH_OVERLOAD:-0}" == "1" ]]; then
  run_suite "${BUILD_DIR}/bench/bench_micro_chaos" "${OVERLOAD_OUT}" 'BM_Overload.*'
fi

# Experiment sweep (src/sweep/): not a google-benchmark suite — the binary
# runs a grid of independent Simulator experiments on worker threads and
# writes one deterministically merged JSON document.
if [[ "${BENCH_SWEEP:-1}" == "1" ]]; then
  SWEEP_BIN="${BUILD_DIR}/bench/sweep_runner"
  if [[ ! -x "${SWEEP_BIN}" ]]; then
    echo "error: ${SWEEP_BIN} not built (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  "${SWEEP_BIN}" \
    --grid="${BENCH_SWEEP_GRID:-fig5}" \
    --threads="${BENCH_SWEEP_THREADS:-$(nproc)}" \
    --out="${SWEEP_OUT}" \
    --manifest=none
  echo "wrote ${SWEEP_OUT}"
fi

# Sharded-simulation throughput (src/sim/sharded_sim.*): also not a
# google-benchmark suite — the binary sweeps window-bound mode x shard
# count over the 1k- and 10k-node city slices and records frames/s,
# events/s, events/window and speedup-vs-solo alongside the machine's core
# count (speedup is meaningful only when the shard workers land on distinct
# cores; on one core the sweep documents parity instead). Digests are an
# inline differential across the WHOLE mode x shard grid: any cell that
# diverges aborts the run.
if [[ "${BENCH_SHARDSIM:-1}" == "1" ]]; then
  SHARDSIM_BIN="${BUILD_DIR}/bench/bench_micro_shardsim"
  if [[ ! -x "${SHARDSIM_BIN}" ]]; then
    echo "error: ${SHARDSIM_BIN} not built (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  "${SHARDSIM_BIN}" \
    --preset=all \
    --shards="${BENCH_SHARDSIM_SHARDS:-1,2,4,8}" \
    --mode="${BENCH_SHARDSIM_MODES:-fixed,adaptive}" \
    --out="${SHARDSIM_OUT}"
  echo "wrote ${SHARDSIM_OUT}"
fi

# Scenario engine (src/scenario/): the flash-crowd overload-control study.
# Not a google-benchmark suite either — the binary runs the builtin 2x
# flash-crowd scenario under the four control-policy bundles, byte-compares
# each cell's deterministic dump across shard counts 1,2,4 and enforces the
# acceptance gates in-binary (full bundle >= 99% peak attainment while
# no-control collapses).
if [[ "${BENCH_SCENARIO:-0}" == "1" ]]; then
  SCENARIO_BIN="${BUILD_DIR}/bench/bench_micro_scenario"
  if [[ ! -x "${SCENARIO_BIN}" ]]; then
    echo "error: ${SCENARIO_BIN} not built (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  "${SCENARIO_BIN}" --shards=1,2,4 --out="${SCENARIO_OUT}"
fi
