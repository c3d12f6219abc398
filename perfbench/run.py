#!/usr/bin/env python3
"""Builds the benchmark and `oic` from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig17-exec --seed 1 --seconds 20 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "oic"],
        ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        code = subprocess.call(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        if code != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return code or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--root", ROOT,
        "--oic", os.path.join(release, "oic"),
        "--out", os.path.join(target, "perfbench-out"),
    ] + sys.argv[1:]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
