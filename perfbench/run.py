#!/usr/bin/env python3
"""Build and run the DMW closed-loop benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload honest-n32 --seed 1 --seconds 20 --trace 0

Builds the benchmark package in release mode into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and checks that the last line of
its output carries exactly the metrics BENCHMARK.json declares for the mode:
`end_to_end` with --trace 0, `per_layer` with --trace 1. That line is
printed last. Exits non-zero, without a result line, when the build, the run
or that check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} not found")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the protocol crates are missing; run from a full checkout")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "dmw-perfbench")
    trace_dir = os.path.join(HERE, "traces")
    try:
        run = subprocess.run(
            [binary, *args, "--trace-dir", trace_dir],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")

    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
