#!/usr/bin/env python3
"""Builds and runs the end-to-end configure benchmark.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and builds perfbench/
(which builds the repository's library through the root CMakeLists) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The program's last stdout line is the result JSON; build
output goes to stderr. Exits nonzero without a result when the sources are
missing, the build fails, an output check fails, or the run exceeds its limit.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("warm_mix", "large_fabric", "cold_restart")
RUN_LIMIT_S = 170


def source_tag(root):
    """Digest of every source the program is built from: cross-run plan
    digests are only compared between runs of the same sources."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "engine", "config_service.h")):
        print("perfbench: no pipette sources next to perfbench/ (expected src/)", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = os.path.join(target, "perfbench", "build")
    state = os.path.join(target, "perfbench", "state")
    os.makedirs(state, exist_ok=True)

    log = sys.stderr
    cache = os.path.join(build, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build dir configured for another checkout location cannot be reused.
        with open(cache, errors="replace") as fh:
            home = [l.split("=", 1)[1].strip() for l in fh if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(here):
            shutil.rmtree(build)
    if not os.path.isfile(cache):
        rc = subprocess.call(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=log, stderr=log)
        if rc != 0:
            print("perfbench: cmake configure failed", file=sys.stderr)
            return rc
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", build, "--target", "perfbench_e2e", "-j", jobs],
                         stdout=log, stderr=log)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc

    # Snapshot directories of runs that were killed before they cleaned up.
    for name in os.listdir(state):
        if name.startswith("snapshots-"):
            shutil.rmtree(os.path.join(state, name), ignore_errors=True)

    cmd = [os.path.join(build, "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state-dir", state, "--digest-tag", source_tag(root)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
