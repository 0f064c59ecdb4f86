#!/usr/bin/env python3
"""The bench record rule on canned google-benchmark output.

Usage: record_engine_test.py <path to bench/record_engine.py> <case>

Each case records a first run, then feeds the script a second run and
checks its exit status, its report and the rewritten record.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = sys.argv[1]
BASE = {"BM_A": 100.0, "BM_B/64": 2500.0, "BM_C": 40.0}


def gbench(medians):
    """A google-benchmark JSON report with 5 repetitions and a 2% cv."""
    rows = []
    for name, median in medians.items():
        for agg, value in (("median", median), ("stddev", 0.02 * median),
                           ("cv", 0.02)):
            rows.append({"name": f"{name}_{agg}", "run_name": name,
                         "run_type": "aggregate", "repetitions": 5,
                         "aggregate_name": agg, "cpu_time": value,
                         "time_unit": "ns"})
    return {"context": {"num_cpus": 4}, "benchmarks": rows}


def record(tmp, medians):
    run = os.path.join(tmp, "run.json")
    with open(run, "w") as f:
        json.dump(gbench(medians), f)
    proc = subprocess.run(
        [sys.executable, SCRIPT, run, os.path.join(tmp, "BENCH_engine.json")],
        capture_output=True, text=True)
    with open(os.path.join(tmp, "BENCH_engine.json")) as f:
        return proc, json.load(f)["results"]


def second_run(medians):
    with tempfile.TemporaryDirectory() as tmp:
        proc, _ = record(tmp, BASE)
        assert proc.returncode == 0, proc.stderr
        return record(tmp, medians)


def identical_medians_pass():
    proc, results = second_run(BASE)
    assert proc.returncode == 0, proc.stderr
    assert {n: r["median_ns"] for n, r in results.items()} == BASE


def twice_slower_fails():
    proc, results = second_run({**BASE, "BM_B/64": 5000.0})
    assert proc.returncode == 1, proc.returncode
    assert "BM_B/64" in proc.stderr, proc.stderr
    assert "BM_A" not in proc.stderr and "BM_C" not in proc.stderr
    assert results["BM_B/64"]["median_ns"] == 5000.0


def uniform_host_slowdown_passes():
    proc, _ = second_run({name: 1.6 * ns for name, ns in BASE.items()})
    assert proc.returncode == 0, proc.stderr
    assert "host speed factor 1.60" in proc.stdout, proc.stdout


def new_benchmark_recorded():
    proc, results = second_run({**BASE, "BM_D": 50.0})
    assert proc.returncode == 0, proc.stderr
    assert results["BM_D"] == {"repetitions": 5, "median_ns": 50.0,
                               "stddev_ns": 1.0, "cv": 0.02}


def missing_benchmark_dropped():
    proc, results = second_run({"BM_A": 100.0, "BM_C": 40.0})
    assert proc.returncode == 0, proc.stderr
    assert sorted(results) == ["BM_A", "BM_C"]


CASES = {f.__name__: f for f in (identical_medians_pass, twice_slower_fails,
                                 uniform_host_slowdown_passes,
                                 new_benchmark_recorded,
                                 missing_benchmark_dropped)}

if __name__ == "__main__":
    CASES[sys.argv[2]]()
