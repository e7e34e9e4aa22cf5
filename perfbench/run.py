#!/usr/bin/env python3
"""Build the service benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own cargo package
(perfbench/Cargo.toml) that builds the repository's crates by path, into
$CARGO_TARGET_DIR (default: .bench_build). Set PERFBENCH_FEATURES=simd to
build the measured crates with their lane-parallel kernels. Every argument
is passed to the benchmark binary; its exit code is this script's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def provenance_env(env):
    """Commit and compiler version, stamped by the binary into its output."""

    def capture(cmd):
        try:
            out = subprocess.run(cmd, cwd=HERE, capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    env.setdefault("PERFBENCH_COMMIT", capture(["git", "rev-parse", "HEAD"]))
    env.setdefault("PERFBENCH_RUSTC", capture(["rustc", "--version"]))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    features = env.get("PERFBENCH_FEATURES", "")
    if features:
        build += ["--features", features]
    # Build output goes to stderr: the result must be stdout's last line.
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    provenance_env(env)
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
