#!/usr/bin/env python3
"""Builds and runs the ServerFlow benchmark for one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload serving|dag|paper-mix --seed N \
        --seconds S --trace 0|1 [--smoke]

The first call configures and builds the benchmark binary (the ServerFlow
libraries from source, RelWithDebInfo) under $CARGO_TARGET_DIR, or
`.bench_build` when that is unset; later calls only check that the build is
current. Build output goes to stderr. The binary's stdout is passed
through: a short run record, then as the last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A traced run (--trace 1)
also writes its spans, one JSON object per line, to
<build dir>/traces/<workload>-seed<N>.spans.jsonl.

Exit status: 0 when the run completed and every output check passed;
non-zero on a build failure, a failed check or a timeout.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serving", "dag", "paper-mix")
RUN_TIMEOUT_S = 170


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(out_dir, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def source_id():
    """The git commit when the tree is a git checkout, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the smoke check)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out_dir = os.path.join(build_root(), "perfbench")
    try:
        binary = build(out_dir)
    except (OSError, RuntimeError) as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
