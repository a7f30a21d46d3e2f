#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json once and prints a table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each workload goes through
perfbench/run.py (which builds on first use); the table lists every
metric by name with its unit and value, plus attempted/failed ops, one
column per workload. Exit status 0 only when every workload was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    results = {}
    ok = True
    for w in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            ok = False
        results[w] = json.loads(lines[-1]) if lines else {}

    def cell(w: str, name: str) -> str:
        value = results[w].get("metrics", {}).get(name, {}).get("value")
        return "-" if value is None else f"{value:.6g}"

    head = f"{'metric':34} {'unit':10}" + "".join(
        f" {w:>16}" for w in workloads)
    print(head)
    print("-" * len(head))
    for key in ("attempted", "failed"):
        print(f"{key:34} {'ops':10}" + "".join(
            f" {results[w].get(key, '-'):>16}" for w in workloads))
    for m in metrics:
        print(f"{m['name']:34} {m['unit']:10}" +
              "".join(f" {cell(w, m['name']):>16}" for w in workloads))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
