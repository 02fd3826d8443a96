#!/usr/bin/env bash
# Runs the named microbenchmark suites; each writes BENCH_<suite>.json at the
# repository root and nothing else.
#
# Usage: bench/run_bench.sh [suite...]
#   suites: sim sched dataplane chaos overload sweep shardsim scenario
#   none named = sim sched dataplane sweep shardsim
#
#   sim        event engine (bench_micro_sim)
#   sched      admission control plane (bench_micro_scheduler)
#   dataplane  per-frame data plane (bench_micro_dataplane); aborts if a
#              steady-state frame performs any heap allocation
#   chaos      fault injection: frames/s, p99 completion latency and
#              allocs/frame with the injector off vs armed-idle vs actively
#              firing (bench_micro_chaos)
#   overload   overload control, from the same binary: goodput vs offered
#              load at 1x/1.5x/2x of analytic capacity across the §14
#              policies (none/shed/admit/degrade), plus the 0-allocs/frame
#              guard on the admission reject path
#   sweep      the Fig. 5 grid through the sweep runner, deterministically
#              merged — the bytes are identical for any thread count
#   shardsim   simulated frames/s vs shard count at the 1k, 10k and 100k
#              presets; the digest column is an inline differential (any
#              mismatch aborts the run), and the 100k preset also gates the
#              steady-state allocations and the per-stream footprint
#   scenario   the builtin 2x flash crowd under the control-policy bundles
#              none/admit/degrade/full at shard counts 1,2,4; every cell's
#              deterministic dump must be byte-identical across them, and
#              the binary enforces the paper-shape gates (full >= 99% peak
#              attainment, none collapses)
#
# Environment:
#   BUILD_DIR=build                build tree holding bench/
#   REPS=1                         google-benchmark repetitions
#   BENCH_SWEEP_GRID=fig5          built-in grid: fig5|fig6|smoke|scenario (sweep)
#   BENCH_SWEEP_THREADS=nproc      sweep worker threads
#   BENCH_SHARDSIM_SHARDS=1,2,4,8  shard counts (shardsim)
#   BENCH_SHARDSIM_MODES=fixed,adaptive  window-bound modes (shardsim; the
#                                  adaptive ECSB bound must reproduce the
#                                  fixed bound's digests bit for bit)
#
# The committed BENCH files track the perf trajectory of each layer from PR
# to PR; retaking one suite rewrites only its own file.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
REPS="${REPS:-1}"

binary() {
  local bin="${BUILD_DIR}/bench/$1"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  echo "${bin}"
}

# A google-benchmark suite: binary, output file, optional filter.
run_gbench() {
  local bin out="$2" filter="${3:-}"
  bin="$(binary "$1")"
  "${bin}" \
    ${filter:+--benchmark_filter="${filter}"} \
    --benchmark_repetitions="${REPS}" \
    --benchmark_report_aggregates_only=false \
    --benchmark_out_format=json \
    --benchmark_out="${out}"
  echo "wrote ${out}"
}

run_suite() {
  local out="BENCH_$1.json" bin
  case "$1" in
    sim) run_gbench bench_micro_sim "${out}" ;;
    sched) run_gbench bench_micro_scheduler "${out}" ;;
    dataplane) run_gbench bench_micro_dataplane "${out}" ;;
    chaos) run_gbench bench_micro_chaos "${out}" '-BM_Overload.*' ;;
    overload) run_gbench bench_micro_chaos "${out}" 'BM_Overload.*' ;;
    sweep)
      # Not a google-benchmark suite: the runner executes a grid of
      # independent Simulator experiments on worker threads and writes one
      # deterministically merged JSON document.
      bin="$(binary sweep_runner)"
      "${bin}" \
        --grid="${BENCH_SWEEP_GRID:-fig5}" \
        --threads="${BENCH_SWEEP_THREADS:-$(nproc)}" \
        --out="${out}"
      echo "wrote ${out}"
      ;;
    shardsim)
      # Window-bound mode x shard count over the city presets; speedup is
      # meaningful only when the shard workers land on distinct cores, so
      # the file records the machine's core count.
      bin="$(binary bench_micro_shardsim)"
      "${bin}" \
        --preset=all \
        --shards="${BENCH_SHARDSIM_SHARDS:-1,2,4,8}" \
        --mode="${BENCH_SHARDSIM_MODES:-fixed,adaptive}" \
        --out="${out}"
      ;;
    scenario)
      bin="$(binary bench_micro_scenario)"
      "${bin}" --shards=1,2,4 --out="${out}"
      ;;
  esac
}

ALL_SUITES=(sim sched dataplane chaos overload sweep shardsim scenario)
suites=("$@")
if [[ ${#suites[@]} -eq 0 ]]; then
  suites=(sim sched dataplane sweep shardsim)
fi
# Reject a misspelt name before any suite spends its minutes.
for suite in "${suites[@]}"; do
  if [[ " ${ALL_SUITES[*]} " != *" ${suite} "* ]]; then
    echo "error: unknown suite '${suite}' (${ALL_SUITES[*]})" >&2
    exit 2
  fi
done
for suite in "${suites[@]}"; do
  run_suite "${suite}"
done
