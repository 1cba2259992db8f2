#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fleet|stream|offline --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the `ddn` binary (the root workspace)
and the `perfbench` binary (its own workspace under perfbench/) in release
mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`), then runs
`perfbench`. Its last line of standard output is the result.
Exits non-zero without a result when either build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()


def build(manifest, package=None):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if package:
        cmd += ["-p", package]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def main():
    env_target = os.environ.get("CARGO_TARGET_DIR")
    if not env_target:
        os.environ["CARGO_TARGET_DIR"] = os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, os.environ["CARGO_TARGET_DIR"])
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not (os.path.isfile(manifest) and os.path.isfile(root_manifest)):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 1
    if not build(root_manifest, "ddn-cli") or not build(manifest):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ddn = os.path.join(target, "release", "ddn")
    bench = os.path.join(target, "release", "perfbench")
    return subprocess.run([bench, *sys.argv[1:], "--ddn", ddn], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
