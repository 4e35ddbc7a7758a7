"""One workload in one fresh process: set up, run a closed loop, report.

Usage: python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
       python bench/worker.py --workload NAME --seed N --setup-only

Prints ``ready <input sha256>`` once the library is imported and the inputs
are drawn, then, unless ``--setup-only``, runs one job after another (one
client, the next job starts when the last ends) for S seconds and prints one
JSON line of results. A job whose output check fails is reported on stderr
with its inputs and counted, never dropped.

Job times are reported in units of a reference: fixed work that shares no
code with the library (``workloads.reference_kernel``), timed between jobs
every ``REFERENCE_EVERY_S``. On a machine shared with other tenants the
speed a process gets changes within seconds as their load comes and goes;
dividing a job's time by the reference time taken next to it removes most
of that, so the ratios compare across runs and commits better than wall
times do. Wall times are reported too.

With ``--trace 1`` every job runs twice, once plain and once with the span
wrappers installed, alternating which goes first; the per-layer numbers come
from the traced runs and the ratio of the two totals is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"  # raw spans of traced runs, one JSON object a line
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
from matchplay import core, dp  # noqa: E402
from workloads import WORKLOADS, reference_kernel  # noqa: E402

REFERENCE_EVERY_S = 0.1
TAIL_MIN_BEYOND = 10
TAIL_FALLBACK = (99.0, 98.0, 95.0, 90.0, 75.0, 70.0, 50.0)


def tail(latencies: list[float], pct: float) -> tuple[float, float]:
    """Nearest-rank ``pct`` percentile and the percentile actually used.

    The percentile must leave at least ten samples above it; in a run too
    short for that, the highest lower percentile that does is used.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (pct, *(q for q in TAIL_FALLBACK if q < pct)):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], p
    return ordered[-1], 100.0


class Reference:
    """Times ``run`` at most every ``every_s`` seconds."""

    def __init__(self, run, every_s: float):
        self.run = run
        self.every_s = every_s
        self.times: list[float] = []
        self._due = 0.0

    def sample_if_due(self) -> None:
        if time.perf_counter() < self._due:
            return
        t0 = time.perf_counter()
        self.run()
        end = time.perf_counter()
        self.times.append(end - t0)
        self._due = end + self.every_s

    def current(self) -> float:
        """Median of the last three samples, so one preempted sample does not count."""
        return statistics.median(self.times[-3:])


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def solve_peak_mb(spans) -> float:
    """tracemalloc peak inside one ``dp.solve`` at the largest horizon traced.

    Run once after the loop, so the allocation hooks do not slow the timed
    spans; the tables' size depends on the horizon alone.
    """
    sizes = [s.size for s in spans if (s.layer, s.fn) == ("dp", "solve")]
    if not sizes:
        return 0.0
    spec = core.MatchSpec.from_probs(0.45, 0.0, 0.55, 0.10, 0.75, 0.15)
    tracemalloc.start()
    try:
        dp.solve(spec, max(sizes))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", workload.digest(), flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer()
    reference = Reference(reference_kernel, REFERENCE_EVERY_S)
    plain: list[float] = []  # job latencies without tracing, seconds
    scaled: list[float] = []  # the same, in units of the reference
    traced_s = 0.0
    failures: list[tuple[int, str]] = []
    attempted = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        if not args.trace:
            reference.sample_if_due()
        order = (False,) if not args.trace else ((False, True) if i % 2 == 0 else (True, False))
        for traced in order:
            attempted += 1
            if traced:
                tracer.job = i
                tracer.install()
            t0 = time.perf_counter()
            try:
                elapsed, problem = workload.job(i, traced, tracer)
            except Exception:  # a failing job is counted, the run goes on
                elapsed, problem = time.perf_counter() - t0, traceback.format_exc()
            finally:
                tracer.uninstall()
            if problem:
                failures.append((i, problem))
            if traced:
                traced_s += elapsed
            else:
                plain.append(elapsed)
                if not args.trace:
                    scaled.append(elapsed / reference.current())
        i += 1
    wall = time.perf_counter() - start
    failures += workload.finish()
    for job, problem in failures:
        print(f"FAILED {workload.name} job {job} [{workload.describe(job)}]: {problem}", file=sys.stderr)

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "jobs": i,
        "digest": workload.digest(),
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "file_cache": "not dropped",
        },
    }
    if args.trace:
        spans_file = SPANS_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        spans_file.parent.mkdir(exist_ok=True)
        with spans_file.open("w", encoding="utf-8") as out:
            out.writelines(json.dumps(s._asdict()) + "\n" for s in tracer.spans)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        traced_jobs = attempted - len(plain)
        layers = tracing.layer_metrics(tracer.spans, traced_jobs)
        layers["trace.job_s"] = (traced_s / traced_jobs, "s/job")
        layers["dp.solve_peak_mb"] = (solve_peak_mb(tracer.spans), "MB")
        layers["verify.failed_checks"] = (workload.failed_checks, "count")
        layers["cli.nonzero_exits"] = (sum(code != 0 for code in workload.exits), "count")
        layers["trace.overhead_frac"] = (traced_s / sum(plain) - 1.0, "frac")
        result["per_layer"] = layers
        result["cli_wall_ms_p50"] = statistics.median(plain) * 1e3 if workload.in_children else 0.0
    else:
        ref_tail, pct = tail(scaled, workload.tail_pct)
        wall_tail, _ = tail(plain, pct)
        result["end_to_end"] = {
            "jobs_per_kref": (1e3 * len(scaled) / sum(scaled), "1/kref"),
            "job_ref_p50": (statistics.median(scaled), "ref"),
            "job_ref_tail": (ref_tail, "ref"),
            "peak_rss_mb": (peak_rss_mb(children=workload.in_children), "MB"),
            "ok_frac": ((attempted - len(failures)) / attempted, "frac"),
        }
        result["wall"] = {
            "jobs_per_s": attempted / (wall - sum(reference.times)),
            "job_ms_p50": statistics.median(plain) * 1e3,
            "job_ms_tail": wall_tail * 1e3,
            "reference_ms": statistics.median(reference.times) * 1e3,
            "reference_samples": len(reference.times),
        }
        result["tail"] = {"percentile": pct, "samples": len(plain)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
