#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The engine library is compiled from ../src together with the program
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Build output goes to stderr, so the program's JSON result stays the last
line of stdout. Exits with the program's status: 0 when every output check
passed, non-zero otherwise (including when the build fails).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = d if os.path.isabs(d) else os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """sha256 over the engine and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["oltp", "analytics", "ingest"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if a.selftest:
        return subprocess.run([binary, "--selftest"], cwd=ROOT).returncode

    # Paths relative to the checkout keep the Unix socket path short.
    work = os.path.relpath(os.path.dirname(out), ROOT)
    traces = os.path.join(work, "traces")
    os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
    cmd = [binary,
           "--workload", a.workload,
           "--seed", str(a.seed),
           "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--run-dir", os.path.join(work, f"run-{a.workload}-{os.getpid()}"),
           "--trace-out", os.path.join(traces, f"{a.workload}-seed{a.seed}.tsv"),
           "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
