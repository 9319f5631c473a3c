"""One benchmark run of one workload, in a process that `run.py` started.

Checks that BLAS runs one thread (refuses to run otherwise), sets up the
workload several times, runs its timed loop for at least `--seconds`,
runs the output checks, and prints every metric by name with its unit.
The last stdout line is the JSON result. The full record (machine facts,
sample counts, checks, digest, span summary) goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run as runner  # noqa: E402
import tracing  # noqa: E402
from atcnn import desk_profile, paper_profile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PIN_METHOD = f"run.py sets {', '.join(runner.PINNED_ENV)} to 1 before numpy loads"


def blas_threads() -> tuple[int | None, str]:
    """BLAS thread count in effect, read back without changing it, and how it was read."""
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        blas = [m for m in threadpool_info() if m.get("user_api") == "blas"]
        if blas:
            return max(m["num_threads"] for m in blas), "threadpoolctl.threadpool_info"
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)  # already loaded by numpy: this only takes a handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter(), f"ctypes {Path(path).name}:{symbol}"
    return None, "no OpenBLAS library found in the process"


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas_build = "unknown"
    try:
        import threadpoolctl  # noqa: F401
        have_threadpoolctl = True
    except ImportError:
        have_threadpoolctl = False
    threads, read_by = blas_threads()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_build": blas_build,
        "threadpoolctl": have_threadpoolctl,
        "blas_pinned_by": PIN_METHOD,
        "blas_threads": threads,
        "blas_threads_read_by": read_by,
    }


def source_hash() -> str:
    """Hash of the package and benchmark sources: runs with equal hashes must agree bitwise."""
    h = hashlib.sha256()
    for path in sorted([*(HERE.parent / "src" / "atcnn").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """State of one run that the workloads report into."""

    def __init__(self, seed: int, trace: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracing.Tracer() if trace else None
        self.allocs = {"forward": [], "backward": []}
        self.checks: list[tuple[str, bool]] = []
        self.step_ms: list[float] = []
        self.digest = ""
        self.info: dict = {}

    def check(self, name: str, ok) -> bool:
        self.checks.append((name, bool(ok)))
        return bool(ok)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def begin(self, name: str) -> None:
        if self.tracer:
            self.tracer.begin(name)

    def end(self) -> None:
        if self.tracer:
            self.tracer.end()

    def instrument(self, model, optimizer) -> None:
        if self.tracer:
            tracing.instrument(self.tracer, model, optimizer, self.allocs)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def compare_digest(key: str, digest: str) -> str:
    """Compare with the digest an earlier run of the same sources and inputs stored."""
    store_path = runner.OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    seen = store.get(key)
    if seen is None:
        store[key] = digest
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        return "first run"
    return "match" if seen == digest else f"MISMATCH: earlier runs gave {seen}"


def measure(workload, run: Run, seconds: float) -> tuple[list[float], int, float]:
    """Run the join checks, set up `scale.setups` times, run the timed loop, check outputs.

    Returns (seconds per set-up, units run, timed-loop seconds).
    """
    with run.span("checks"):  # first, so that the models they build add to no later peak
        for config in (desk_profile(), paper_profile()):
            ok, detail = tracing.join_check(config)
            run.check(f"mult-add join ({detail})", ok)
    setup_s = []
    for _ in range(workload.scale.setups):
        start = time.perf_counter()
        with run.span("setup"):
            workload.setup(run)
        setup_s.append(time.perf_counter() - start)

    units = 0
    start = time.perf_counter()
    while units < workload.scale.min_units or time.perf_counter() - start < seconds:
        with run.span("unit"):
            workload.unit(run, units)
        units += 1
    loop_s = time.perf_counter() - start

    with run.span("checks"):
        workload.finish(run)
    return setup_s, units, loop_s


def tracing_overhead(key: str, untraced_path: Path, traced_rate: float) -> float | None:
    """Drop in segments_per_s against the untraced run of the same sources and inputs."""
    if not untraced_path.exists():
        return None
    base = json.loads(untraced_path.read_text())
    if base["source"] != key:
        return None
    return 1.0 - traced_rate / base["end_to_end"]["segments_per_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's minimal sizes")
    args = parser.parse_args(argv)

    machine = machine_record()
    if machine["blas_threads"] != 1:
        sys.exit(f"error: BLAS runs {machine['blas_threads']} threads "
                 f"({machine['blas_threads_read_by']}), not 1; "
                 "start the benchmark through perfbench/run.py")

    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(getattr(workload_cls, args.scale))
    runner.OUT.mkdir(exist_ok=True)
    workdir = runner.OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    run = Run(args.seed, bool(args.trace), workdir)
    if run.tracer:
        tracemalloc.start()
        undo = tracing.patch_modules(run.tracer)
    try:
        setup_s, units, loop_s = measure(workload, run, args.seconds)
    finally:
        if run.tracer:
            undo()
        shutil.rmtree(workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    key = f"{args.workload} seed={args.seed} scale={args.scale} src={source_hash()}"
    digest_status = compare_digest(key, run.digest)
    run.check("determinism digest matches earlier runs of these sources",
              not digest_status.startswith("MISMATCH"))

    attempted = len(run.checks)
    failed = sum(not ok for _, ok in run.checks)
    segments = units * workload.segments_per_unit()
    e2e = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "segments_per_s": (segments / loop_s, "segments/s",
                           f"{segments} segments in {loop_s:.1f} s"),
        "step_ms_p50": (statistics.median(run.step_ms), "ms", f"n={len(run.step_ms)} steps"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
        "success_rate": (1.0 - failed / attempted, "share",
                         f"error_rate = {failed}/{attempted} = {failed / attempted:.4f}"),
    }
    lines = [f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
             f"trace {args.trace}  units {units}",
             "machine " + json.dumps(machine)]
    lines += [f"{name} = {value:.6g} {unit}  ({note})" for name, (value, unit, note) in e2e.items()]
    if len(run.step_ms) >= 100:  # a p90 needs at least ten samples beyond it
        lines.append(f"step_ms_p90 = {percentile(run.step_ms, 90):.6g} ms  "
                     f"(n={len(run.step_ms)} steps)")
    lines += [f"{name} = {value}" for name, value in run.info.items()]
    lines.append(f"digest {run.digest}  ({digest_status})")
    lines += [f"FAILED CHECK: {name}" for name, ok in run.checks if not ok]

    record = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "seconds": args.seconds, "source": key, "machine": machine,
              "units": units, "setup_s": setup_s, "loop_s": loop_s, "step_ms": run.step_ms,
              "digest": run.digest, "digest_status": digest_status, "info": run.info,
              "checks": [{"name": n, "ok": ok} for n, ok in run.checks],
              "end_to_end": {n: {"value": v, "unit": u, "note": note}
                             for n, (v, u, note) in e2e.items()}}
    path = runner.record_path(args.workload, args.seed, args.scale, args.trace)
    if run.tracer:
        layer = tracing.per_layer_metrics(run.tracer, workload.model, run.allocs)
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layer.items()}
        record["per_layer"] = metrics
        record["spans"] = run.tracer.summary()
        record["tracing_overhead"] = overhead = tracing_overhead(
            key, runner.record_path(args.workload, args.seed, args.scale, 0),
            e2e["segments_per_s"][0])
        lines.append("tracing overhead: " + (
            "n/a (no untraced run of these sources and inputs recorded)" if overhead is None
            else f"{100 * overhead:.1f}% lower segments_per_s than the untraced run"))
        lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        path.with_suffix(".spans.json").write_text(json.dumps(run.tracer.spans))
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u, _) in e2e.items()}
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
