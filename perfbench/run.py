#!/usr/bin/env python3
"""Run the atcnn benchmark.

Each workload runs in a fresh child process (`worker.py`) whose BLAS is
pinned to one thread through the environment before numpy loads; the child
reads the thread count back and refuses to run if it is not 1. This parent
imports no numpy, bounds the child's run time, checks that the result line
names exactly the metrics `BENCHMARK.json` lists, and relays the output.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, default settings

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s
PINNED_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    """The child failed, overran, or printed a result that breaks the contract."""


def record_path(workload: str, seed: int, scale: str, trace: int) -> Path:
    """Where the child writes its full record (metrics, checks, machine, spans summary)."""
    return OUT / f"{workload}-seed{seed}-{scale}-trace{trace}.json"


def expected_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit that a run with this trace flag must print."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: str = "full") -> tuple[str, dict]:
    """Run one workload in a pinned child; returns (its stdout, the parsed result)."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PINNED_ENV),
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}\n"
                         f"{proc.stdout}")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: last output line is not a JSON result") from exc
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"{workload}: result keys {sorted(result)}")
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise BenchError(f"{workload}: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"unlisted {extra}, wrong unit {wrong}")
    return proc.stdout, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long the timed loop runs, at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run that prints the per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "atcnn").is_dir():
        print(f"error: no atcnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            stdout, _ = run_child(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
