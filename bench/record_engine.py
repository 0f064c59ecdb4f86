#!/usr/bin/env python3
"""Records a micro_engine run as BENCH_engine.json and names regressions.

Usage: bench/record_engine.py <google-benchmark JSON> <BENCH_engine.json>

The record is rewritten in full from the run: a benchmark the run did not
measure leaves the file and a new one enters it. Each entry keeps the run's
median CPU time per iteration beside the spread of its repetitions
(google-benchmark's stddev and cv aggregates). Every median is compared with
the committed one first; after writing the file the script exits 1 and
lists each benchmark that got slower by more than its noise band:
NOISE_SIGMAS coefficients of variation of the noisier of the two runs, and
never less than MIN_BAND.

The comparison divides out the host's speed, the median over all
benchmarks of now/committed: on a shared 4-vCPU VM whole runs were measured
1.6x apart. A flagged entry therefore got slower relative to the rest of
the engine; a change that slows every benchmark alike shows only in the
printed host factor and raw ratios. The MIN_BAND floor covers what the cv
cannot see: uneven drift across benchmarks, and per-process effects such as
BM_SchedulerBurst/64 measuring 83 us in one process and 117-154 us in four
others on that VM.
"""

import json
import statistics
import sys

NOISE_SIGMAS = 3.0
MIN_BAND = 0.75
TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_run(path):
    with open(path) as f:
        report = json.load(f)
    results = {}
    for row in report["benchmarks"]:
        if row.get("run_type") != "aggregate":
            continue
        entry = results.setdefault(row["run_name"], {})
        entry["repetitions"] = row["repetitions"]
        agg = row["aggregate_name"]
        if agg == "cv":
            entry["cv"] = round(row["cpu_time"], 4)
        elif agg in ("median", "stddev"):
            ns = row["cpu_time"] * TO_NS[row["time_unit"]]
            entry[agg + "_ns"] = round(ns, 1)
    if not results:
        sys.exit(f"error: {path} has no aggregates; run >= 2 repetitions")
    return report["context"]["num_cpus"], results


def main():
    run_path, record_path = sys.argv[1:3]
    nproc, results = load_run(run_path)
    try:
        with open(record_path) as f:
            committed = json.load(f).get("results", {})
    except (OSError, ValueError):
        committed = {}

    ratios = {name: results[name]["median_ns"] / old["median_ns"]
              for name, old in committed.items() if name in results}
    host = statistics.median(ratios.values()) if ratios else 1.0
    print(f"host speed factor {host:.2f} (median now/committed)")
    slower = []
    for name, new in sorted(results.items()):
        old = committed.get(name)
        if old is None:
            print(f"  {name:<36} {'new':>13}    {new['median_ns']:>13.1f} ns")
            continue
        relative = ratios[name] / host
        band = max(NOISE_SIGMAS * max(old["cv"], new["cv"]), MIN_BAND)
        mark = ""
        if relative > 1 + band:
            mark = "  SLOWER"
            slower.append(f"{name}: {relative:.2f}x slower than the host "
                          f"factor, band {band:.0%}")
        print(f"  {name:<36} {old['median_ns']:>13.1f} -> "
              f"{new['median_ns']:>13.1f} ns  {ratios[name]:5.2f}x  "
              f"relative {relative:5.2f}x{mark}")
    for name in sorted(committed.keys() - results.keys()):
        print(f"  {name:<36} dropped: not measured by this run")

    with open(record_path, "w") as f:
        json.dump({
            "description": ("micro_engine medians, CPU ns per iteration, "
                            "with the spread of the run's repetitions"),
            "nproc": nproc,
            "sweep_threads": 1,
            "results": dict(sorted(results.items())),
        }, f, indent=2)
        f.write("\n")
    print(f"wrote {record_path} ({len(results)} benchmarks)")

    if slower:
        print("slower than the committed record beyond the noise band:",
              file=sys.stderr)
        for line in slower:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
