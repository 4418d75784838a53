#!/usr/bin/env python3
"""Build and run the iosched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `iosched` binary (from the
repository's own workspace) and the `perfbench` package next to this
file, both in release mode with the root manifest's `[profile.release]`
settings, into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the benchmark. The benchmark's last line of standard output is its JSON
result; build output goes to standard error.
"""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def profile_env():
    """The root manifest's release profile as CARGO_PROFILE_RELEASE_*
    variables, so the benchmark's own workspace compiles the library
    exactly as the repository's release build does."""
    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not an iosched checkout (no Cargo.toml or crates/)")
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, dict):
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def pin_to_one_cpu():
    """Run the benchmark and every process it starts on one CPU. On a
    small VM a round trip between two vCPUs waits for the host to wake
    the idle one, which swamped the serve latencies; the workloads are
    single-threaded, so nothing else loses."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def build(env, *args):
    # Not --locked: a later change to a crate's dependencies must not
    # break the benchmark's own lock file (every dependency is a path).
    cmd = ["cargo", "build", "--release", "--offline", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    env = dict(os.environ)
    env.update(profile_env())
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(env, "-p", "iosched-cli", "--bin", "iosched")
    build(env, "--manifest-path", str(HERE / "Cargo.toml"))
    release = target / "release"
    cmd = [str(release / "perfbench"), *sys.argv[1:], "--iosched", str(release / "iosched")]
    sys.exit(subprocess.run(cmd, cwd=ROOT, preexec_fn=pin_to_one_cpu).returncode)


if __name__ == "__main__":
    main()
