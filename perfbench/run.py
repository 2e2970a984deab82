#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wh_uniform_ldc --seed 1 --seconds 12 --trace 0

The first run configures and builds perfbench/ (the engine library plus the
ldc_perfbench driver) in .bench_build/ with CMake; later runs rebuild only
what changed. The driver's stdout is passed through once its last line is a
result object whose metric names and units match BENCHMARK.json. --trace 1
also writes a Chrome trace of the traced round to .bench_build/traces/.
Build output goes to stderr. Any failure exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ldc_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_build_step(cmd):
    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S,
                   env=dict(os.environ, TMPDIR=str(tmp)))


def build():
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    try:
        run_build_step(configure)
    except subprocess.CalledProcessError:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "--target",
                    "ldc_perfbench", "-j", jobs])


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, or units differ" % (missing, extra))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: ldc_perfbench exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        check_result(lines[-1], args.trace)
    except (IndexError, ValueError, KeyError, TypeError) as e:
        print("perfbench: bad result: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
