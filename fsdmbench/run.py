#!/usr/bin/env python3
"""Builds and runs the FSDM end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 fsdmbench/run.py --workload ingest|olap|mixed --seed N \
        --seconds S --trace 0|1

The first call configures and builds fsdmbench (this directory's CMake
project, which compiles the repository's src/ libraries in an optimised
build) under $CARGO_TARGET_DIR (default .bench_build); later calls only
rebuild what changed. The benchmark's last line of output is one JSON
object with "correct", "attempted", "failed" and "metrics". The exit code
is the benchmark's: 0 only when every operation succeeded and every answer
matched its reference. A failed build exits non-zero and prints no result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def quiet(cmd):
    """Runs a build step, showing its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          universal_newlines=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", "fsdmbench"])
    return os.path.join(build_dir, "fsdmbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["ingest", "olap", "mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "fsdmbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("fsdmbench: build failed: %s" % e, file=sys.stderr)
        return 3

    workdir = os.path.join(root, "fsdmbench-run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, FSDM_INCIDENT_DIR=os.path.join(workdir, "incidents"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("fsdmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    finally:
        if args.trace:
            # Keep the span file of a traced run next to the build.
            for name in os.listdir(workdir) if os.path.isdir(workdir) else []:
                if name.startswith("spans-"):
                    shutil.move(os.path.join(workdir, name), os.path.join(root, name))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
