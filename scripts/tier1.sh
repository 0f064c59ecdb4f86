#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (warnings are errors),
# and run the full test suite. This is the gate every change must pass.
#
# Usage: scripts/tier1.sh [build-dir]            (default: ./build)
#        scripts/tier1.sh --tsan [build-dir]     (default: ./build-tsan)
#        scripts/tier1.sh --asan [build-dir]     (default: ./build-asan)
#        scripts/tier1.sh --release [build-dir]  (default: ./build-release)
#        scripts/tier1.sh --chaos [build-dir]    (default: ./build)
#        scripts/tier1.sh --fuzz [build-dir]     (default: ./build)
#        scripts/tier1.sh --scale [build-dir]    (default: ./build)
#        scripts/tier1.sh --figures [build-dir]  (default: ./build)
#
# --tsan builds the engine + tests under ThreadSanitizer and runs the
# SweepRunner suite — the only code that spawns threads. Keep it green:
# a data race there silently breaks the bit-identical-results contract.
#
# --asan builds everything under AddressSanitizer + UBSan and runs the
# full suite. The failure-recovery paths cancel events and tear down
# pods/claims/containers out from under in-flight continuations; ASan is
# what catches a stale `this` or use-after-free the happy path never
# trips.
#
# --release builds everything as an optimized Release build and runs the
# full suite. Some GCC warnings (-Wformat-truncation, -Wrestrict) only
# fire once -O3 inlines enough; they are errors here as everywhere.
#
# --chaos builds bench/chaos_sweep and runs its smoke subset at 1 and 4
# sweep threads, diffing both against the committed golden transcript.
# Any drift — between thread counts or against the golden — means the
# structured-chaos determinism contract broke.
#
# --fuzz builds bench/fuzz_sim and runs the pinned 32-point property-
# fuzzer smoke sweep (each point twice, replay fingerprints compared)
# at 1 and 4 sweep threads, diffing both against the committed golden.
# Runs in seconds; scripts/fuzz.sh drives wider sweeps.
#
# --scale builds bench/scale_sweep and runs its smoke subset (small
# open-loop serving + layered-DAG points) at 1 and 4 sweep threads,
# diffing both against the committed golden transcript. Drift means the
# open-loop engine or the scaled control-plane stores lost determinism.
#
# --figures builds the paper-figure and ablation binaries and runs each
# at 1 and 4 sweep threads, diffing the concatenated stdout against the
# committed golden (tests/golden/figures.txt). The figures are part of
# the behavioural contract: a change that moves one must say why and
# re-record the golden (each binary's stdout after an `== <name>` line,
# at SF_SWEEP_THREADS=1).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# golden_leg <label> <golden> <run-fn> <target>...: builds the targets in
# $build_dir, calls `<run-fn> <threads>` at 1 and 4 sweep threads, and
# diffs the two transcripts against each other and against the golden.
golden_leg() {
  local label="$1" golden="$2" run="$3"
  shift 3
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target "$@" -j"$(nproc)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  "$run" 1 > "$tmp/serial.txt"
  "$run" 4 > "$tmp/parallel.txt"
  diff -u "$tmp/serial.txt" "$tmp/parallel.txt" \
    || { echo "$label: thread counts disagree" >&2; exit 1; }
  diff -u "$golden" "$tmp/serial.txt" \
    || { echo "$label: drifted from golden transcript" >&2; exit 1; }
  echo "$label: bit-identical at 1 and 4 threads, matches golden"
  exit 0
}

figures=(fig1_container_reuse fig2_parallel_scaling fig5_tradeoff_ternary
         fig6_makespan_bars ablate_clustering ablate_coldstart
         ablate_complex_workflow ablate_concurrency ablate_event_driven
         ablate_payload ablate_redirection ablate_resizing)
build_dir="${2:-$repo_root/build}"
run_scale() {
  SF_SCALE_SMOKE=1 SF_SWEEP_THREADS=$1 "$build_dir/bench/scale_sweep"
}
run_fuzz() { SF_FUZZ_SMOKE=1 SF_SWEEP_THREADS=$1 "$build_dir/bench/fuzz_sim"; }
run_chaos() {
  SF_CHAOS_SMOKE=1 SF_SWEEP_THREADS=$1 "$build_dir/bench/chaos_sweep"
}
run_figures() {
  local f
  for f in "${figures[@]}"; do
    echo "== $f"
    SF_SWEEP_THREADS=$1 "$build_dir/bench/$f"
  done
}

case "${1:-}" in
  --scale)
    golden_leg "scale smoke" "$repo_root/tests/golden/scale_smoke.txt" \
      run_scale scale_sweep ;;
  --fuzz)
    golden_leg "fuzz smoke" "$repo_root/tests/golden/fuzz_smoke.txt" \
      run_fuzz fuzz_sim ;;
  --chaos)
    golden_leg "chaos smoke" "$repo_root/tests/golden/chaos_smoke.txt" \
      run_chaos chaos_sweep ;;
  --figures)
    golden_leg "figures" "$repo_root/tests/golden/figures.txt" \
      run_figures "${figures[@]}" ;;
esac

if [[ "${1:-}" == "--asan" ]]; then
  build_dir="${2:-$repo_root/build-asan}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -g" \
    -DSERVERFLOW_BUILD_BENCH=OFF \
    -DSERVERFLOW_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j"$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  exit 0
fi

if [[ "${1:-}" == "--release" ]]; then
  build_dir="${2:-$repo_root/build-release}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  build_dir="${2:-$repo_root/build-tsan}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g" \
    -DSERVERFLOW_BUILD_BENCH=OFF \
    -DSERVERFLOW_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" --target sim_test -j"$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -R 'SweepRunnerTest' \
    -j "$(nproc)"
  exit 0
fi

build_dir="${1:-$repo_root/build}"
cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j"$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
