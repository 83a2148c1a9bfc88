#!/usr/bin/env bash
# Sanitizer gate: builds the repo twice via the QOX_SANITIZE CMake knob and
# runs the tier-1 suite under AddressSanitizer, then the concurrency-heavy
# engine_* / plan / robustness / crash / resource / service / cdc /
# storage_snapshot-labeled tests under ThreadSanitizer (the dataflow
# scheduler — concurrent streaming stages and staged partition-branch
# fan-outs — channels, the shared Δ snapshot, the work-stealing
# WorkerPool substrate and the multi-flow FlowService on top of it, the
# planner equivalence sweep — which drives both execution modes — the
# fault-containment suites, whose chaos sweep quarantines concurrently from
# every pipeline, and the resource suites, whose blocking operators spill
# concurrently against a shared MemoryBudget, are where data races would
# live).
#
# Usage:  scripts/check.sh [--asan-only|--tsan-only|--fast]
#
#   --fast   skip the sanitizer trees entirely: one plain build + ctest
#            with reduced sweeps (QOX_CHAOS_SEEDS=8 instead of the default
#            32, QOX_CRASH_SEEDS=4 and QOX_RESOURCE_SEEDS=4 instead of 16,
#            QOX_CDC_SEEDS=2 instead of 8)
#            — the quick pre-commit loop; the full gate stays the default.
#            The unfiltered ctest pass includes the perf-labeled smoke
#            (perf_transform --quick: byte-identical warehouses across
#            worker counts, every click_top row through the per-row
#            kernels; see bench/CMakeLists.txt).
#
# Build trees land in build-asan/ and build-tsan/ next to build/ so the
# regular (unsanitized) tree stays untouched. Exits non-zero on the first
# failing suite.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"
# ctest label regex of the TSan leg: the engine_* binaries plus the shared
# suite labels, and storage_snapshot (several threads classify against one
# snapshot, as a partitioned Δ's branches do). The branches of a
# partitioned Δ and the instances of a redundant run handing their landings
# to one run are covered in engine_landing_test.
TSAN_LABELS="^engine_|plan|robustness|crash|resource|service|cdc|storage_snapshot"

run_suite() {
  local sanitizer="$1"     # address | thread | none
  local build_dir="$2"     # build | build-asan | build-tsan
  local label_regex="$3"   # ctest -L filter over binary-name labels ('' = all)

  echo "==> [${sanitizer}] configuring ${build_dir}"
  if [[ "${sanitizer}" == "none" ]]; then
    cmake -B "${REPO_ROOT}/${build_dir}" -S "${REPO_ROOT}" > /dev/null
  else
    cmake -B "${REPO_ROOT}/${build_dir}" -S "${REPO_ROOT}" \
          -DQOX_SANITIZE="${sanitizer}" > /dev/null
  fi
  echo "==> [${sanitizer}] building"
  cmake --build "${REPO_ROOT}/${build_dir}" -j "${JOBS}" > /dev/null
  echo "==> [${sanitizer}] running ctest ${label_regex:+-L ${label_regex}}"
  (cd "${REPO_ROOT}/${build_dir}" && \
   ctest -j "${JOBS}" --output-on-failure ${label_regex:+-L "${label_regex}"})
}

case "${MODE}" in
  all)
    # ASan covers every suite (robustness and crash labels included); TSan
    # re-runs the concurrency-heavy subset plus the robustness and crash
    # suites (the supervisor forks from the single-threaded gtest runner;
    # children thread freely after exec-free fork, which TSan supports).
    run_suite address build-asan ""
    run_suite thread build-tsan "${TSAN_LABELS}"
    ;;
  --asan-only)
    run_suite address build-asan ""
    ;;
  --tsan-only)
    run_suite thread build-tsan "${TSAN_LABELS}"
    ;;
  --fast)
    QOX_CHAOS_SEEDS="${QOX_CHAOS_SEEDS:-8}" \
    QOX_CRASH_SEEDS="${QOX_CRASH_SEEDS:-4}" \
    QOX_RESOURCE_SEEDS="${QOX_RESOURCE_SEEDS:-4}" \
    QOX_CDC_SEEDS="${QOX_CDC_SEEDS:-2}" run_suite none build ""
    echo "==> fast check passed (sanitizer trees skipped)"
    exit 0
    ;;
  *)
    echo "usage: scripts/check.sh [--asan-only|--tsan-only|--fast]" >&2
    exit 2
    ;;
esac

echo "==> sanitizer checks passed"
