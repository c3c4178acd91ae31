#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --figure3 [--seed <n>]

Run from the repository root.  Builds the `noftl-perfbench` package
(perfbench/Cargo.toml, a workspace of its own that depends on the crates
under crates/ by path) into $CARGO_TARGET_DIR, default .bench_build/, then
runs it with the given arguments.  The binary prints every metric by name
and unit and ends with one JSON result line; this script checks that the
line names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1) and exits non-zero
without a result line if the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(args):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    if "--figure3" in args:
        return None
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target, "release", "noftl-perfbench")
    try:
        run = subprocess.run(
            [binary, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines))
        fail(f"run failed with exit code {run.returncode}")

    expected = expected_metrics(args)
    if expected is not None:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print("\n".join(lines))
            fail("the last line of the run is not a JSON result")
        got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
        if got != expected:
            print("\n".join(lines[:-1]))
            fail(
                "result metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(expected) - set(got))}, "
                f"unexpected {sorted(set(got) - set(expected))}, "
                f"unit mismatches {sorted(n for n in got if n in expected and got[n] != expected[n])}"
            )
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
