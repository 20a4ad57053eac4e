#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig8_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (the simulator library from src/ plus the driver) as
a Release build under .bench_build/perfbench, runs one workload and
relays the driver's output. The last line of standard output is the
JSON result. Exits non-zero, without a result, when the build or the
run fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig8_sweep", "fig10_virt", "mc_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def configured():
    """True when BUILD_DIR holds a CMake cache for this checkout (a
    moved checkout keeps a cache that points at the old path)."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) == os.path.realpath(BENCH_DIR)
    return False


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not configured():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """git sha when this is a git checkout, and a hash of src/ always
    (benchmark checkouts are plain trees)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip()[:12] + " " + ident
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seed < 0 or args.seconds is None
                               or args.seconds <= 0):
        parser.error("--workload, --seed >= 0 and --seconds > 0 are "
                     "required")

    exe = build()
    # Full-mode runs only: no quick mode, fault injection, resume or
    # thread-count overrides leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ASAP_")}
    env["ASAP_RESULTS_DIR"] = os.path.join(BUILD_DIR, "results")

    if args.self_test:
        sys.exit(subprocess.run([exe, "--self-test"], env=env).returncode)

    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id()]
    if args.trace:
        command += ["--spans",
                    os.path.join(BUILD_DIR, f"spans_{args.workload}.csv")]
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"driver exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("driver printed no JSON result")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
