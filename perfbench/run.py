#!/usr/bin/env python3
"""Build the benchmark package and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <campaign|serve|dataflow|suite> \
        --seed N --seconds S --trace 0|1

The package in this directory is built in release mode against the
repository's crates (offline, into ``$CARGO_TARGET_DIR`` or
``.bench_build``), then run with the same arguments. Its last line of
standard output is the JSON result; build chatter goes to standard error.
Spans of traced runs are written under ``perfbench/out``.

The result line is held to ``BENCHMARK.json``: an untraced run must
report every end-to-end metric and a traced run every per-layer metric,
each in the manifest's unit. A per-layer metric of a layer the workload
does not exercise reads 0 (no calls, no time).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "m7-perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--out", os.path.join(HERE, "out")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(run.stdout, end="")
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    traced = sys.argv[sys.argv.index("--trace") + 1] == "1"
    result = json.loads(lines[-1])
    problem = hold_to_manifest(result["metrics"], traced)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def hold_to_manifest(metrics, traced):
    """Checks ``metrics`` against the manifest's list for this kind of run
    and fills in the per-layer metrics of layers the workload does not
    exercise. Returns what is wrong, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    extra = sorted(set(metrics) - set(units))
    if extra:
        return f"metrics not in BENCHMARK.json: {extra}"
    absent = []
    for name, unit in units.items():
        if name not in metrics:
            if not traced:
                return f"end-to-end metric {name} missing"
            metrics[name] = {"value": 0, "unit": unit}
            absent.append(name)
        elif metrics[name]["unit"] != unit:
            return f"{name} reported in {metrics[name]['unit']}, BENCHMARK.json says {unit}"
    if absent:
        print(f"perfbench: {len(absent)} per-layer metrics not on this workload's "
              f"path read 0: {', '.join(absent)}", file=sys.stderr)
    return None


if __name__ == "__main__":
    sys.exit(main())
