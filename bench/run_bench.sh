#!/usr/bin/env bash
# Measures every recorded bench and rewrites the three records at the
# repository root in full; each bench writes its own JSON:
#
#   BENCH_engine.json    — micro_engine medians (CPU ns/iteration) with the
#                          spread of their repetitions, via --benchmark_out
#                          and bench/record_engine.py
#   BENCH_fullstack.json — chaos_sweep's seed-pure gray-ejection and catalog
#                          ablation rows, via SF_CHAOS_JSON
#   BENCH_scale.json     — the scale_sweep curve with per-point and total
#                          wall-clock, via SF_SCALE_JSON
#
# The committed files are the baseline and git history is the record. The
# script exits 1 and names every microbenchmark whose median got slower
# than the committed one by more than its noise band (see
# bench/record_engine.py); whether to commit the new numbers is a git diff.
#
# Usage: bench/run_bench.sh [build-dir] [repetitions]   (./build, 5; reps >= 2)
# The build directory must be configured (cmake -B build -S .).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
reps="${2:-5}"

# Build first, so a binary older than the source is never measured.
cmake --build "$build_dir" --target micro_engine chaos_sweep scale_sweep \
  -j"$(nproc)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Interleaving spreads each benchmark's repetitions over the whole run, so
# their cv (the noise band) includes the host's drift from minute to
# minute, not only the jitter between adjacent repetitions.
"$build_dir/bench/micro_engine" \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions="$reps" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$tmp/engine.json" \
  --benchmark_out_format=json
SF_CHAOS_JSON="$tmp/fullstack.json" "$build_dir/bench/chaos_sweep" > /dev/null
SF_SCALE_JSON="$tmp/scale.json" "$build_dir/bench/scale_sweep" > /dev/null

mv "$tmp/fullstack.json" "$repo_root/BENCH_fullstack.json"
mv "$tmp/scale.json" "$repo_root/BENCH_scale.json"
python3 "$repo_root/bench/record_engine.py" "$tmp/engine.json" \
  "$repo_root/BENCH_engine.json"
