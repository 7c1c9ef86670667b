#!/usr/bin/env python3
"""Build and run the Skute benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload with TMPDIR pointed at a
fresh per-run directory under `.perfbench/tmp/`, which is removed
afterwards. Result files and traces go to `.perfbench/results/` and
`.perfbench/traces/`. The last line of standard output is the run's JSON
verdict; the exit code is non-zero when the build fails, the run fails,
or any output check fails. `--workload all` runs every workload in turn,
each in its own process, and fails if any of them fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run may take 180 s; the first one in a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ["engine-m2k-churn", "engine-m20k-outage", "serve-mixed-mem", "serve-write-lsm"]


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ are missing; nothing to build", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env.update(
        PERFBENCH_OUT=os.path.join(ROOT, ".perfbench"),
        PERFBENCH_RUSTC=tool_output(["rustc", "--version"]),
        PERFBENCH_COMMIT=os.environ.get("PERFBENCH_COMMIT")
        or tool_output(["git", "rev-parse", "--short=12", "HEAD"]),
    )
    binary = os.path.join(target, "release", "skute-perfbench")
    args = sys.argv[1:]
    if "all" in args and args[args.index("all") - 1] == "--workload":
        at = args.index("all")
        codes = [run(binary, args[:at] + [w] + args[at + 1:], env) for w in WORKLOADS]
        return next((c for c in codes if c != 0), 0)
    return run(binary, args, env)


def run(binary, args, env):
    """Runs the benchmark binary once, in a fresh TMPDIR that is removed
    afterwards."""
    tmp = os.path.join(env["PERFBENCH_OUT"], "tmp", "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=dict(env, TMPDIR=tmp))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
