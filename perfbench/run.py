#!/usr/bin/env python3
"""Build the benchmark and the `chipmunkc` daemon from source, then run one
workload.

    python3 perfbench/run.py --workload corpus-fresh --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Every argument is passed through to the
`perfbench` binary; see perfbench/NOTES.md for the workloads and metrics.
Build output goes to stderr; the last line of standard output is the
benchmark's JSON result. Cargo's target directory is `CARGO_TARGET_DIR`,
or `.bench_build` when that is unset; scratch files go to `.bench_work`.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "chipmunk-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--chipmunkc", os.path.join(release, "chipmunkc"),
        "--workdir", os.path.join(root, ".bench_work"),
        *sys.argv[1:],
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
