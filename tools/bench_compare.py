#!/usr/bin/env python3
"""Records and compares perfbench result files (BENCH_perfbench.json).

Run from anywhere inside a checkout:

    python3 tools/bench_compare.py OLD.json NEW.json
    python3 tools/bench_compare.py --record BENCH_perfbench.json

--record runs perfbench/run.py of this checkout at seed 1 and
BENCHMARK.json's run_seconds, on every workload BENCHMARK.json lists, with
--trace 0 and --trace 1, and writes the diagnostics and result lines of
each run to one JSON file.

Comparing two such files checks the exact values: `correct`, `attempted`,
`failed`, the simulated end-to-end metrics and every per-layer count. They
repeat bit for bit for a seed, so any difference is reported and makes the
exit status 1. Wall-clock metrics are printed as NEW/OLD ratios beside the
bound BENCHMARK.json gives them, and flagged when one run pair is worse by
more than it. A single pair is noisy, so a flag alone does not fail.
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# End-to-end metrics computed on the simulator's virtual clock.
EXACT_END_TO_END = {"sim_ops_per_s", "write_amp", "space_amp"}

# Per-layer metrics measured with steady_clock; all others are counts,
# ratios of counts, or simulated times.
WALL_CLOCK_PER_LAYER = {
    "db.put.self_us", "db.get.self_us", "db.scan.self_us",
    "db.compaction.flush.us_per_mb", "db.compaction.merge.us_per_mb",
    "db.compaction.merge.self_us_per_mb", "wal.append_us_per_put",
    "table.bloom.create_us_per_mb", "table.read_us_per_get",
    "util.cache.us_per_get", "workload.harness_us_per_op",
    "trace.ops_per_s_ratio",
}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SEED = 1


def record(out_path):
    spec = load_spec()
    seconds = spec["run_seconds"]
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(seconds), "--trace", str(trace)]
            print("running: %s" % " ".join(cmd[1:]), file=sys.stderr)
            lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   check=True).stdout.strip().splitlines()
            runs.append({"workload": workload, "trace": trace,
                         "diagnostics": json.loads(lines[-2]),
                         "result": json.loads(lines[-1])})
    doc = {"command": "python3 perfbench/run.py --workload W --seed %d "
                      "--seconds %d --trace T" % (SEED, seconds),
           "host": {"cpu": cpu_model(), "machine": platform.machine()},
           "runs": runs}
    Path(out_path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def keyed_runs(doc):
    return {(r["workload"], r["trace"]): r["result"] for r in doc["runs"]}


def compare(old_doc, new_doc):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    wall_clock = WALL_CLOCK_PER_LAYER | (
        {m["name"] for m in spec["end_to_end"]} - EXACT_END_TO_END)
    old_runs, new_runs = keyed_runs(old_doc), keyed_runs(new_doc)
    differences = 0
    for key in sorted(set(old_runs) | set(new_runs)):
        workload, trace = key
        print("%s --trace %d" % (workload, trace))
        if key not in old_runs or key not in new_runs:
            print("  MISSING from %s file" %
                  ("old" if key not in old_runs else "new"))
            differences += 1
            continue
        old, new = old_runs[key], new_runs[key]
        exact = [(f, old[f], new[f]) for f in ("correct", "attempted", "failed")]
        wall = []
        for name in sorted(set(old["metrics"]) | set(new["metrics"])):
            o = old["metrics"].get(name, {}).get("value")
            n = new["metrics"].get(name, {}).get("value")
            if o is None or n is None or name not in wall_clock:
                exact.append((name, o, n))
            else:
                wall.append((name, o, n))
        diff = [(name, o, n) for name, o, n in exact if o != n]
        differences += len(diff)
        print("  exact: %d of %d identical" % (len(exact) - len(diff),
                                               len(exact)))
        for name, o, n in diff:
            print("    DIFFERS %-38s %r -> %r" % (name, o, n))
        for name, o, n in wall:
            print("  " + wall_clock_line(metrics[name], o, n))
    if differences:
        print("%d exact value(s) differ" % differences)
    return differences


def wall_clock_line(metric, old, new):
    name = metric["name"]
    if old == 0:
        return "%-40s %12.6g -> %.6g" % (name, old, new)
    ratio = new / old
    worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
    bound = metric.get("bound")
    line = "%-40s %12.6g -> %-12.6g x%.3f" % (name, old, new, ratio)
    if bound is None:
        return line
    line += "  bound %.2f" % bound
    if worse > bound:
        line += "  WORSE BEYOND BOUND"
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="OLD.json NEW.json to compare")
    parser.add_argument("--record", metavar="OUT",
                        help="run perfbench and write its results to OUT")
    args = parser.parse_args()
    if args.record:
        record(args.record)
        return 0
    if len(args.files) != 2:
        parser.error("give OLD.json and NEW.json, or --record OUT")
    old_doc, new_doc = (json.loads(Path(f).read_text()) for f in args.files)
    return 1 if compare(old_doc, new_doc) else 0


if __name__ == "__main__":
    sys.exit(main())
