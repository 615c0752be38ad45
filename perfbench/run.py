#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <tables|dse_sweep|serve_open> \
        --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (default
.bench_build at the repository root). Build output goes to stderr; the
benchmark's own output goes to stdout, and its last line is the JSON
result. The host block gets the toolchain version and, in a git
checkout, the commit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no crates/ beside perfbench/, nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    env["PERFBENCH_RUSTC"] = capture(["rustc", "-V"]) or "unknown"
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = capture(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env["PERFBENCH_GIT_REV"] = rev or "none (not a git checkout)"
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
