#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it builds through run.py). Checks:

  declarations  run.check_declared rejects an undeclared metric, a wrong
                unit and a missing one; BENCHMARK.json names are unique.
  workloads     every workload in both modes exits 0 with correct = true,
                failed = 0, every declared metric printed with its unit and
                (traced) a trace that passes tools/lint/check_trace.py.
  fault         an injected wrong oracle value makes failed > 0, correct =
                false and the exit status nonzero, on every workload.
  seed          the same seed twice gives identical input and oracle
                digests; another seed gives other inputs and still passes.

Takes about four minutes. Exit status 0 when every check passed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (the benchmark entry point, for its validators)


def invoke(workload: str, seed: int, trace: int,
           fault: bool = False) -> tuple[int, dict, dict]:
    """Runs run.py; returns (exit status, info line, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    if fault:
        cmd.append("--inject-oracle-fault")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    info = json.loads(lines[-2]) if len(lines) > 1 else {}
    return proc.returncode, info, result


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are unique")
    declared = run.declared_metrics(False)
    good = {"metrics": {n: {"value": 1.0, "unit": u}
                        for n, u in declared.items()}}
    expect(not run.check_declared(good, declared),
           "every declared metric, with its unit, is accepted")
    extra = json.loads(json.dumps(good))
    extra["metrics"]["undeclared_s"] = {"value": 1.0, "unit": "s"}
    expect(bool(run.check_declared(extra, declared)),
           "an undeclared metric is rejected")
    unit = json.loads(json.dumps(good))
    unit["metrics"]["wall_s"]["unit"] = "ms"
    expect(bool(run.check_declared(unit, declared)),
           "a metric with the wrong unit is rejected")
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["wall_s"]
    expect(bool(run.check_declared(missing, declared)),
           "a missing metric is rejected")

    for w in [workload["name"] for workload in spec["workloads"]]:
        for trace in (0, 1):
            status, info, result = invoke(w, 7, trace)
            expect(status == 0 and result.get("correct") is True
                   and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   f"{w} --trace {trace} passes with failed = 0")
        status, _, result = invoke(w, 7, 0, fault=True)
        expect(status != 0 and result.get("correct") is False
               and result.get("failed", 0) > 0,
               f"{w}: an injected oracle fault fails the run")
        _, again, _ = invoke(w, 7, 0)
        expect(bool(info) and info["inputs_digest"] == again["inputs_digest"]
               and info["oracle_digest"] == again["oracle_digest"],
               f"{w}: seed 7 reproduces its inputs and oracle digests")
        status, other, result = invoke(w, 8, 0)
        expect(status == 0 and result.get("correct") is True
               and other.get("inputs_digest") != info.get("inputs_digest"),
               f"{w}: seed 8 gives other inputs and passes")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
