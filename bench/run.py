"""matchplay benchmark: one workload per call, every metric by name with its unit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in BENCHMARK.json. The library is not installed;
the benchmark runs it from ``src/``.

``--trace 0`` times the set-up of a fresh interpreter several times, then
runs the workload in its own fresh process and reports the end-to-end
metrics. ``--trace 1`` runs the workload with span wrappers on every layer
(see ``tracer.py``) and breaks the import down with ``-X importtime``; it
reports the per-layer metrics. Either way the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it say what was run, on what, and which percentile the tail is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_STARTS = 6  # one cold start varies by a quarter; the median of six does not
IMPORT_RUNS = 5
BUDGET_S = 170.0  # the whole call, every child included

# -X importtime entries whose cumulative time is reported, by metric prefix
IMPORTS = {
    "core": "matchplay.core",
    "dp": "matchplay.dp",
    "policies": "matchplay.policies",
    "analytic": "matchplay.analytic",
    "sim": "matchplay.sim",
    "verify": "matchplay.verify",
    # importing the cli module pulls in the whole package: what a cold call pays
    "cli": "matchplay.cli",
    "numpy": "numpy",
    "scipy": "scipy",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def timeout(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"over the {BUDGET_S:.0f} s budget")
    return left


def run_worker(args: list[str], deadline: float) -> tuple[float, str, str]:
    """Start the worker; return seconds until it was ready, its digest and its last line."""
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=timeout(deadline))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not ready.startswith("ready "):
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return ready_s, ready.split()[1], out.strip().rsplit("\n", 1)[-1]


def import_times(text: str) -> dict[str, float]:
    """Cumulative ms per ``IMPORTS`` entry from ``-X importtime`` output.

    A module counts at its outermost entries only: ``numpy`` sums the
    cumulative times of the numpy modules that no other numpy module
    imported.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))

    def within(name: str, module: str) -> bool:
        return name == module or name.startswith(module + ".")

    found = dict.fromkeys(IMPORTS, 0.0)
    ancestors: list[str] = []
    for depth, name, ms in reversed(entries):  # each parent now precedes its imports
        del ancestors[depth:]
        for metric, module in IMPORTS.items():
            if within(name, module) and not any(within(a, module) for a in ancestors):
                found[metric] += ms
        ancestors.append(name)
    return found


def measure_imports(deadline: float) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import matchplay.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout(deadline),
        )
        if done.returncode != 0:
            raise BenchError(f"import matchplay failed: {done.stderr.strip()[-500:]}")
        samples.append(import_times(done.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in IMPORTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "matchplay" / "__init__.py").is_file():
        raise BenchError(f"no matchplay sources under {ROOT / 'src'}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        setups = [run_worker([*common, "--setup-only"], deadline) for _ in range(SETUP_STARTS)]
        metrics["setup_s"] = (statistics.median(s for s, _, _ in setups), "s")
    _, digest, last = run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    result = json.loads(last)
    if args.trace == 0 and {d for _, d, _ in setups} != {digest}:
        raise BenchError("processes with the same seed drew different inputs")
    if args.trace:
        imports = measure_imports(deadline)
        layers = result["per_layer"]
        for name, ms in imports.items():
            layers[f"{name}.import_ms"] = (ms, "ms")
        wall_ms = result["cli_wall_ms_p50"]
        layers["cli.self_ms_p50"] = (wall_ms - imports["cli"] if wall_ms else 0.0, "ms")
        metrics.update(layers)
        job_s = layers["trace.job_s"][0]
        shares = " ".join(
            f"{layer}={layers[layer + '.self_s'][0] / job_s:.1%}"
            for layer in ("dp", "policies", "analytic", "sim", "verify")
        )
        print(f"# self time as a share of traced job time: {shares}")
        print(f"# spans written to {result['spans_file']}")
    else:
        metrics.update(result["end_to_end"])
        tail = result["tail"]
        print(f"# job_ref_tail is p{tail['percentile']:g} of {tail['samples']} jobs")
        print("# wall: " + " ".join(f"{k}={v:.6g}" for k, v in result["wall"].items()))

    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"# {args.workload} seed={args.seed} inputs sha256={digest} jobs={result['jobs']}")
    print(f"# {env}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
