#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload, untraced and traced.

Checks that every run prints each metric `BENCHMARK.json` names for its
trace mode, with that unit and a finite value, that the run's output
checks pass, and that the mult-add join against `count_resources` holds
for both profiles. Tiny runs use a few segments, one epoch or one step, and
no accuracy target, so their figures are not benchmark results.

Usage (from the repository root): python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import sys

import run

SEED = 1


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            try:
                _, result = run.run_child(workload, SEED, 0, trace, scale="tiny")
            except run.BenchError as exc:  # includes metric names or units unlike BENCHMARK.json
                problems.append(f"{where}: {exc}")
                continue
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-finite values for {bad}")
            record = json.loads(run.record_path(workload, SEED, "tiny", trace).read_text())
            failed = [c["name"] for c in record["checks"] if not c["ok"]]
            if failed or not result["correct"]:
                problems.append(f"{where}: failed checks {failed}")
            joins = [c for c in record["checks"] if c["name"].startswith("mult-add join")]
            if len(joins) != 2:
                problems.append(f"{where}: expected a mult-add join check per profile")
            print(f"{where}: {len(result['metrics'])} metrics, {result['attempted']} checks",
                  flush=True)
    for line in problems:
        print(f"FAIL {line}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
