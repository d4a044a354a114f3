#!/usr/bin/env python3
"""Builds the benchmark from source and runs it from the repository root.

    python3 perfbench/run.py --workload instance --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py describe
    python3 perfbench/run.py compare perfbench/out/sweep-untraced.json other.json

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the repository
root) and its output to stderr, so the last line of stdout is the run's JSON
result. Shard manifests and reports are written under perfbench/out/tmp.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
        )
    except OSError as error:
        print(f"perfbench: cannot run cargo: {error}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    tmp = os.path.join(ROOT, "perfbench", "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    binary = os.path.join(target, "release", "perfbench")
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
