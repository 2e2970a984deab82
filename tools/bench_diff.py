#!/usr/bin/env python3
"""Diffs two directories of paper-harness results (BENCH_*.json).

    python3 tools/bench_diff.py OLD_DIR NEW_DIR [--allow JSON_PATH ...]

Every bench/bench_* harness writes its figures to BENCH_<tag>.json files.
On the simulator they repeat bit for bit, so two runs of the same model
must write the same bytes. This script compares every BENCH_*.json found in
either directory and prints each JSON path whose value differs, with array
indices folded (`rows[3].micros` is reported as `rows[].micros`), and the
number of files in which it differs. A file present on one side only is a
difference too.

A path passed to --allow is a difference the caller expects (say, a counter
that a change starts to fill in). The exit status is 1 if any other path
differs, or if a file exists on one side only; 0 otherwise.
"""

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

ONLY_ONE_SIDE = "<file on one side only>"


def flatten(value, path=""):
    """Yields (path, leaf value) for every leaf, with indices in the path."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from flatten(child, path + "." + key if path else key)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from flatten(child, "%s[%d]" % (path, i))
    else:
        yield path, value


def differing_paths(old_file, new_file):
    """Returns the folded paths whose values differ between two files."""
    old = dict(flatten(json.loads(old_file.read_text())))
    new = dict(flatten(json.loads(new_file.read_text())))
    missing = object()
    return {re.sub(r"\[\d+\]", "[]", path)
            for path in old.keys() | new.keys()
            if old.get(path, missing) != new.get(path, missing)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    parser.add_argument("--allow", action="append", default=[],
                        metavar="JSON_PATH",
                        help="a folded path that may differ (repeatable)")
    args = parser.parse_args()

    names = sorted({p.name for d in (args.old_dir, args.new_dir)
                    for p in d.glob("BENCH_*.json")})
    if not names:
        print("no BENCH_*.json in either directory", file=sys.stderr)
        return 1

    files_per_path = Counter()
    files_differing = 0
    for name in names:
        old_file, new_file = args.old_dir / name, args.new_dir / name
        if not (old_file.exists() and new_file.exists()):
            side = args.old_dir if old_file.exists() else args.new_dir
            print("only in %s: %s" % (side, name))
            paths = {ONLY_ONE_SIDE}
        else:
            paths = differing_paths(old_file, new_file)
        if paths:
            files_differing += 1
        files_per_path.update(paths)

    allowed = set(args.allow) - {ONLY_ONE_SIDE}
    width = max((len(p) for p in files_per_path), default=0)
    for path, count in sorted(files_per_path.items()):
        print("%-*s  %4d file(s)%s" % (width, path, count,
                                       "  allowed" if path in allowed else ""))
    refused = [p for p in files_per_path if p not in allowed]
    print("%d of %d file(s) differ; %d differing path(s), %d not allowed"
          % (files_differing, len(names), len(files_per_path), len(refused)))
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
