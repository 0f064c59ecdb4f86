#!/usr/bin/env python3
"""Smoke check for the benchmark: tiny versions of all three workloads.

Run from the root of a source tree:

    python3 perfbench/smoke.py

For each workload it makes two untraced runs and one traced run of one seed
with --smoke inputs (each finishes in about a second) and asserts that:
  * every run exits 0 and reports correct, with no failed op;
  * every metric BENCHMARK.json lists is printed, with the unit it lists;
  * the two untraced runs give identical sim-time metrics;
  * the layers are isolated: on `serving` the pegasus and condor counts are
    zero, on `dag` the knative counts and k8s.binds are zero, and on
    `paper-mix` every layer shows work.
It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exit status 0 when every check passed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SIM_METRICS = ("sim_p50_ms", "sim_p99_ms", "sim_p999_ms", "sim_makespan_s")
SERVING_ZERO = ("pegasus.plan_s", "pegasus.jobs_planned", "condor.submit_s",
                "condor.negotiation_cycles", "condor.jobs_completed",
                "condor.jobs_failed")
DAG_ZERO = ("knative.warmup_s", "knative.requests_routed",
            "knative.cold_starts", "knative.route_retries",
            "knative.ready_pods", "k8s.binds")
# One count per layer that must be non-zero on paper-mix.
MIX_NONZERO = ("sim.events", "k8s.binds", "knative.requests_routed",
               "net.http_requests", "net.bytes_delivered",
               "pegasus.jobs_planned", "condor.jobs_completed",
               "core.invocations", "container.created", "catalog.lookups",
               "workload.gen_s", "trace.records")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def result(workload, trace, spec):
    proc = run(ROOT, workload, trace)
    tag = "%s trace=%d" % (workload, trace)
    check(proc.returncode == 0, tag + ": exit status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    check(sorted(out) == ["attempted", "correct", "failed", "metrics"],
          tag + ": result keys " + str(sorted(out)))
    check(out.get("correct") is True, tag + ": not correct")
    check(out.get("failed") == 0 and out.get("attempted", 0) >= 1,
          tag + ": attempted/failed " + str((out.get("attempted"),
                                             out.get("failed"))))
    metrics = out.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in metrics.items()}
    check(got == want, tag + ": metrics/units differ from BENCHMARK.json: " +
          str(set(got.items()) ^ set(want.items())))
    return {k: v["value"] for k, v in metrics.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in (w["name"] for w in bench["workloads"]):
        first = result(w, 0, bench["end_to_end"])
        second = result(w, 0, bench["end_to_end"])
        for m in SIM_METRICS:
            check(first.get(m) == second.get(m),
                  "%s: %s differs between runs: %s vs %s" %
                  (w, m, first.get(m), second.get(m)))
        layers = result(w, 1, bench["per_layer"])
        print("%s: ok=%s %s" % (w, not failures, json.dumps(
            {k: first[k] for k in SIM_METRICS if k in first})))
        if w == "serving":
            for m in SERVING_ZERO:
                check(layers.get(m) == 0, "serving: %s is %s, want 0" %
                      (m, layers.get(m)))
        elif w == "dag":
            for m in DAG_ZERO:
                check(layers.get(m) == 0, "dag: %s is %s, want 0" %
                      (m, layers.get(m)))
        elif w == "paper-mix":
            for m in MIX_NONZERO:
                check(layers.get(m, 0) > 0, "paper-mix: %s is %s, want > 0" %
                      (m, layers.get(m)))

    # Without the repository's sources the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "bare directory: exit %d, stdout %r" % (proc.returncode,
                                                  proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
