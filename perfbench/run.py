#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the `perfbench` binary (and
the simulator library it links) into $CARGO_TARGET_DIR, default
`.bench_build`, runs one workload, and prints the binary's result object as
the last line of standard output:

    {"correct": true, "attempted": 480, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's `end_to_end` set; with
--trace 1 they are its `per_layer` set, and the Chrome trace the binary
wrote is validated with tools/lint/check_trace.py first. Every metric
printed must be declared in BENCHMARK.json with the same unit, and every
declared metric must be printed. Exit status 0 only when the outputs were
correct and the trace passed the check; a failed trace check prints the
result with "correct": false. A build, run or declaration problem exits
nonzero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # per invocation, build excluded


class BenchError(Exception):
    pass


def build_dir() -> str:
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build() -> str:
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    log = sys.stderr
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=log, stderr=log).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "perfbench")


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_declared(result: dict, declared: dict[str, str]) -> list[str]:
    """Findings for metrics that are undeclared, mis-unitted or missing."""
    findings = []
    printed = result.get("metrics", {})
    for name, value in printed.items():
        if name not in declared:
            findings.append(f"metric {name} is not declared in BENCHMARK.json")
        elif value.get("unit") != declared[name]:
            findings.append(f"metric {name} has unit {value.get('unit')!r}, "
                            f"BENCHMARK.json declares {declared[name]!r}")
    for name in declared:
        if name not in printed:
            findings.append(f"declared metric {name} was not printed")
    return findings


def check_trace(path: str) -> bool:
    linter = os.path.join(ROOT, "tools", "lint", "check_trace.py")
    proc = subprocess.run([sys.executable, linter, path], capture_output=True,
                          text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-oracle-fault", action="store_true",
                        help="corrupt one oracle reference (self-test only)")
    args = parser.parse_args()
    trace = args.trace == 1

    try:
        binary = build()
        declared = declared_metrics(trace)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        trace_path = os.path.join(
            build_dir(), f"trace_{args.workload}_{args.seed}.json")
        if trace:
            cmd += ["--trace-out", trace_path]
        if args.inject_oracle_fault:
            cmd.append("--inject-oracle-fault")
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"perfbench exited {proc.returncode} without output")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        if proc.returncode not in (0, 1):
            raise BenchError(f"perfbench exited {proc.returncode}")
        findings = check_declared(result, declared)
        if findings:
            raise BenchError("; ".join(findings))
        if trace and not check_trace(trace_path):
            result["correct"] = False
        sys.stderr.write(f"perfbench: {args.workload} seed {args.seed} "
                         f"ran {time.monotonic() - start:.1f} s\n")
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
