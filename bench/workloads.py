"""Seeded inputs, jobs and output checks of the benchmark workloads.

Each workload draws its whole input pool from ``--seed`` when it is built;
that is the set-up the benchmark times. A job builds its ``MatchSpec``
(the ``core`` validation a caller pays) and calls the library only through
module attributes such as ``dp.solve``, so the tracer's wrappers see every
call. ``job`` returns the time spent in the library and, when the output
check fails, a description of what is wrong; the caller reports it with the
job's inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from matchplay import analytic, core, dp, policies, sim, verify
from tracer import SPANS_MARK, Span

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CLI_SHIM = Path(__file__).resolve().parent / "cli_shim.py"

EXACT_TOL = 1e-12  # two exact routes
FORMULA_TOL = 1e-10  # trinomial closed form against convolution
MC_SIGMAS = 5.0

# reference specs of the test suite, used where the CLI output is pinned
GRIND = (0.49, 0.0, 0.51, 0.02, 0.95, 0.03)
GRIND_NSTAR = 32
CURVE_GOLDENS = (
    ((0.43, 0.0, 0.57, 0.06, 0.84, 0.10), "curve_peak4.csv"),
    ((0.43, 0.0, 0.57, 0.06, 0.86, 0.08), "curve_peak6.csv"),
)


def mc_bound(gain: float, samples: int) -> float:
    """Allowed Monte Carlo error from the exact gain's variance bound.

    A final sign s in {-1, 0, 1} has variance at most 1 - g^2, so this bound
    does not collapse to zero when every sample happens to land on one sign,
    as the estimate's own standard error does.
    """
    return MC_SIGMAS * math.sqrt(max(0.0, 1.0 - gain * gain) / samples)


def cycled(rng, count: int, values) -> np.ndarray:
    """``count`` rows of ``values``: each row once per cycle, in seeded order.

    Each run thus does the same mix of small and large jobs, whatever the
    seed and however many cycles fit in it; with sizes drawn at random,
    which sizes came up would move a run's figures as much as the code did.
    An odd number of sizes puts the median inside the middle size's jobs,
    not in the gap between two sizes, where any noise would move it.
    """
    values = np.asarray(values, dtype=np.int64)
    cycles = -(-count // len(values))
    order = rng.permuted(np.tile(np.arange(len(values)), (cycles, 1)), axis=1).ravel()
    return values[order[:count]]


def weak_specs(rng, count: int) -> np.ndarray:
    """Rows (pw, pd, pl, qw, qd, ql): neither style wins more than it loses.

    The offense loses strictly but not by much and the defense is drawish,
    the regime where switching pays. Gains stay inside (-1, 1) by a margin,
    so no Monte Carlo check hinges on a few rare samples.
    """
    pd = rng.uniform(0.0, 0.2, count)
    pw = rng.uniform(0.35, 0.97, count) * (1.0 - pd) / 2.0
    qd = rng.uniform(np.maximum(pd, 0.5), 0.95)
    qw = rng.uniform(0.01, (1.0 - qd) / 2.0)
    return np.column_stack([pw, pd, 1.0 - pd - pw, qw, qd, 1.0 - qd - qw])


def grid_specs(rng, count: int) -> np.ndarray:
    """Weak specs on the 0.01 grid, exact for the integer oracle."""
    pd = rng.integers(0, 31, count)
    pw = rng.integers(1, (100 - pd) // 2 + 1)
    qd = rng.integers(pd, 96)
    qw = rng.integers(0, (100 - qd) // 2 + 1)
    return np.column_stack([pw, pd, 100 - pd - pw, qw, qd, 100 - qd - qw])


def _spec(row) -> core.MatchSpec:
    return core.MatchSpec.from_probs(*row)


_REFERENCE_ROW = np.sign(np.arange(-301, 302)).astype(np.float64)


def reference_kernel() -> float:
    """Fixed work in the shape of the library's: small numpy steps and plain Python.

    It shares no code with ``matchplay``, so no change to the library moves
    its duration; only the speed the machine runs at, at that moment, does.
    """
    buf = _REFERENCE_ROW.copy()
    for _ in range(40):
        up, mid, down = buf[2:], buf[1:-1], buf[:-2]
        best = np.maximum((0.45 * up + 0.55 * down) + 0.0 * mid, (0.1 * up + 0.15 * down) + 0.75 * mid)
        np.clip(best, -1.0, 1.0, out=best)
        buf[1:-1] = best
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 255] = counts.get(i & 255, 0) + len(str(i))
    return float(buf[301]) + len(counts)


class Workload:
    """A seeded input pool; jobs index it cyclically."""

    name = ""
    # fixed, so that runs and commits compare the same percentile; it must
    # leave ten jobs above it and fall inside one job size, not between two
    tail_pct = 95.0
    pool = 4096
    in_children = False  # the library runs in child processes, not in this one

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.arrays: dict[str, np.ndarray] = {}
        self.failed_checks = 0
        self.exits: list[int] = []

    def digest(self) -> str:
        h = hashlib.sha256(self.name.encode())
        for key in sorted(self.arrays):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.arrays[key]).tobytes())
        return h.hexdigest()

    def row(self, key: str, i: int):
        return self.arrays[key][i % self.pool].tolist()

    def describe(self, i: int) -> str:
        return ", ".join(f"{key}={self.row(key, i)}" for key in sorted(self.arrays))

    def job(self, i: int, traced: bool, tracer) -> tuple[float, str | None]:
        raise NotImplementedError

    def finish(self) -> list[tuple[int, str]]:
        """Checks that run after the timed loop; (job, problem) per failure."""
        return []


class OptimalScan(Workload):
    """Parameter study: best horizon and full tables; the Bellman sweep does the work."""

    name = "optimal_scan"

    def __init__(self, seed):
        super().__init__(seed)
        self.arrays["spec"] = weak_specs(self.rng, self.pool)
        self.arrays["n"] = cycled(self.rng, self.pool, np.geomspace(100, 3000, 17).round())

    def job(self, i, traced, tracer):
        row, n = self.row("spec", i), self.row("n", i)
        t0 = time.perf_counter()
        spec = _spec(row)
        best = dp.find_optimal_horizon(spec, n)
        solved = dp.solve(spec, n)
        elapsed = time.perf_counter() - t0
        return elapsed, self._check(spec, n, best, solved, random.Random(self.seed * 1_000_003 + i))

    @staticmethod
    def _check(spec, n, best, solved, rng):
        values = solved.values
        gains = [values.value(k, 0) for k in range(1, n + 1)]
        if not 1 <= best.horizon <= n:
            return f"best horizon {best.horizon} outside 1..{n}"
        if abs(gains[best.horizon - 1] - best.gain) > EXACT_TOL or max(gains) - best.gain > EXACT_TOL:
            return f"horizon search {best} disagrees with the value table (max {max(gains)!r})"
        if abs(solved.gain - gains[-1]) > EXACT_TOL:
            return f"solve gain {solved.gain!r} != table value {gains[-1]!r}"
        off, dfn = spec.offense, spec.defense
        for _ in range(24):  # the table must satisfy the Bellman equation
            k = rng.randint(1, n)
            band = min(k, n - k)
            x = rng.randint(-band, band)
            up, mid, down = (values.value(k - 1, x + dx) for dx in (1, 0, -1))
            v_off = off.win * up + off.draw * mid + off.loss * down
            v_def = dfn.win * up + dfn.draw * mid + dfn.loss * down
            want = min(1.0, max(-1.0, v_off, v_def))
            if abs(values.value(k, x) - want) > EXACT_TOL:
                return f"value at (k={k}, x={x}) is {values.value(k, x)!r}, Bellman gives {want!r}"
            attack = solved.policy.action(k, x) is core.Action.OFF
            if abs(v_off - v_def) > EXACT_TOL and attack != (v_off > v_def):
                return f"action at (k={k}, x={x}) is not the better style"
        return None


class PlanCurves(Workload):
    """Benchmark plans: forward propagation and the trinomial do the work, dp none."""

    name = "plan_curves"

    def __init__(self, seed):
        super().__init__(seed)
        self.arrays["spec"] = weak_specs(self.rng, self.pool)
        self.arrays["n"] = cycled(self.rng, self.pool, np.geomspace(50, 800, 17).round())

    def job(self, i, traced, tracer):
        row, n = self.row("spec", i), self.row("n", i)
        t0 = time.perf_counter()
        spec = _spec(row)
        curve = dp.gain_curve(spec, n, ("cat", "catplus", "off", "def"))
        refined = policies.exact_policy_gain(spec, policies.cat_plus_policy(spec), n)
        trinomial = analytic.fixed_style_gain(spec.offense, n)
        elapsed = time.perf_counter() - t0
        gains = curve.gains
        if any(len(gains[label]) != n for label in ("cat", "catplus", "off", "def")):
            return elapsed, f"curves do not cover horizons 1..{n}"
        if abs(refined - gains["catplus"][-1]) > EXACT_TOL:
            return elapsed, f"refined plan: exact {refined!r} != curve {gains['catplus'][-1]!r}"
        if abs(trinomial - gains["off"][-1]) > FORMULA_TOL:
            return elapsed, f"offense: trinomial {trinomial!r} != convolution {gains['off'][-1]!r}"
        if float(np.max(gains["cat"] - gains["catplus"])) > EXACT_TOL:
            return elapsed, "refined lead protection falls below the plain rule"
        return elapsed, None


KINDS = ("oracle", "mc_table", "mc_cat")


class Validate(Workload):
    """Many small checked calls, where per-call cost shows, plus one ``run_checks``."""

    name = "validate"
    tail_pct = 98.0
    pool = 8192
    samples = 20_000

    def __init__(self, seed):
        super().__init__(seed)
        self.arrays["grid"] = grid_specs(self.rng, self.pool)
        self.arrays["spec"] = weak_specs(self.rng, self.pool)
        # (kind, horizon) pairs; the horizon matters to the Monte Carlo kinds only
        self.arrays["job"] = cycled(
            self.rng, self.pool, [(kind, n) for kind in range(len(KINDS)) for n in range(4, 61, 5)]
        )
        self.arrays["stream"] = self.rng.integers(0, 2**31, self.pool)

    def describe(self, i):
        if i == 0:
            return f"run_checks(seed={self.seed})"
        kind, n = self.row("job", i)
        if KINDS[kind] == "oracle":
            return f"oracle spec={[p / 100 for p in self.row('grid', i)]} n=4"
        return f"{KINDS[kind]} spec={self.row('spec', i)} n={n} seed={self.row('stream', i)}"

    def job(self, i, traced, tracer):
        if i == 0:
            t0 = time.perf_counter()
            checks = verify.run_checks(seed=self.seed)
            elapsed = time.perf_counter() - t0
            failed = [c.line() for c in checks if not c.passed]
            self.failed_checks += len(failed)
            return elapsed, (f"checks failed: {failed}" if failed else None)
        kind, n = self.row("job", i)
        if KINDS[kind] == "oracle":
            row = [p / 100 for p in self.row("grid", i)]
            t0 = time.perf_counter()
            spec = _spec(row)
            exact = policies.brute_force_optimal(spec, 4)
            solved = dp.solve(spec, 4).gain
            elapsed = time.perf_counter() - t0
            if abs(exact - solved) > EXACT_TOL:
                return elapsed, f"oracle {exact!r} != solver {solved!r}"
            return elapsed, None
        row, stream = self.row("spec", i), self.row("stream", i)
        t0 = time.perf_counter()
        spec = _spec(row)
        if KINDS[kind] == "mc_table":
            solved = dp.solve(spec, n)
            exact = solved.gain
            est = sim.estimate_gain(spec, policies.table_policy(solved.policy), n, self.samples, stream)
        else:
            est = sim.estimate_gain(spec, policies.cat_policy(), n, self.samples, stream)
            exact = policies.exact_policy_gain(spec, policies.cat_policy(), n)
        elapsed = time.perf_counter() - t0
        if est.samples != self.samples or est.seed != stream:
            return elapsed, f"estimate metadata {est} does not echo the request"
        if abs(est.mean - exact) > mc_bound(exact, self.samples):
            return elapsed, f"estimate {est.mean!r} is {abs(est.mean - exact):.3g} from exact {exact!r}"
        return elapsed, None


def _flags(row) -> list[str]:
    out = []
    for name, value in zip(("pw", "pd", "pl", "qw", "qd", "ql"), row):
        out += [f"--{name}", repr(float(value))]
    return out


def _limit_specs(rng, count: int) -> np.ndarray:
    """Weak specs whose defense is a sure draw, fair, or losing, in turn.

    Those are the regimes with a derived long-match limit, so ``limits``
    succeeds on every one.
    """
    rows = weak_specs(rng, count)
    regime = np.arange(count) % 3
    q = rng.uniform(0.01, (1.0 - rows[:, 1]) / 2.0)
    rows[regime == 0, 3:] = (0.0, 1.0, 0.0)
    fair = regime == 1
    rows[fair, 3:] = np.column_stack([q, 1.0 - 2.0 * q, q])[fair]
    return rows


class CliCold(Workload):
    """One fresh CLI process per job: interpreter start and imports are timed too."""

    name = "cli_cold"
    tail_pct = 65.0
    pool = 512
    in_children = True
    commands = ("classify", "curve", "nstar", "limits", "simulate")
    samples = 20_000

    def __init__(self, seed):
        super().__init__(seed)
        self.arrays["spec"] = weak_specs(self.rng, self.pool)
        self.arrays["limit_spec"] = _limit_specs(self.rng, self.pool)
        self.arrays["horizon"] = self.rng.integers(4, 17, self.pool)
        self.arrays["stream"] = self.rng.integers(0, 2**31, self.pool)
        self.outputs: list[tuple[int, str]] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def command(self, i: int) -> tuple[str, int]:
        """Subcommand of job ``i`` and which of its two variants it runs."""
        return self.commands[i % len(self.commands)], (i // len(self.commands)) % 2

    def argv(self, i: int) -> list[str]:
        command, variant = self.command(i)
        if command == "curve":
            probs, _ = CURVE_GOLDENS[variant]
            return ["curve", *_flags(probs), "--n-max", "20"]
        if command == "nstar":
            return ["nstar", *_flags(GRIND), "--n-max", "64"]
        if command == "limits":
            return ["limits", *_flags(self.row("limit_spec", i))]
        if command == "simulate":
            policy = ("cat", "optimal")[variant]
            return [
                "simulate", *_flags(self.row("spec", i)),
                "--horizon", str(self.row("horizon", i)), "--policy", policy,
                "--samples", str(self.samples), "--seed", str(self.row("stream", i)),
            ]
        return ["classify", *_flags(self.row("spec", i))]

    def describe(self, i):
        return "matchplay " + " ".join(self.argv(i))

    def job(self, i, traced, tracer):
        entry = [str(CLI_SHIM)] if traced else ["-m", "matchplay.cli"]
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *entry, *self.argv(i)],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        self.exits.append(done.returncode)
        stderr = done.stderr
        if traced:
            stderr, _, spans = stderr.rpartition(SPANS_MARK)
            tracer.add([Span(*s) for s in json.loads(spans)])
        if done.returncode != 0:
            return elapsed, f"exit code {done.returncode}: {stderr.strip()}"
        self.outputs.append((i, done.stdout))
        return elapsed, None

    def finish(self):
        expected_curves = [(GOLDEN / name).read_text(encoding="utf-8") for _, name in CURVE_GOLDENS]
        grind = dp.find_optimal_horizon(_spec(GRIND), 64)
        problems = []
        for i, out in self.outputs:
            try:
                problem = self._check(i, out, expected_curves, grind)
            except (ValueError, IndexError) as exc:
                problem = f"unreadable output {out!r}: {exc}"
            if problem:
                problems.append((i, problem))
        return problems

    def _check(self, i, out, expected_curves, grind):
        command, variant = self.command(i)
        if command == "curve":
            want = expected_curves[variant]
            return None if out == want else "curve output differs from the golden file"
        cells = dict(zip(*(line.split(",") for line in out.splitlines())))
        if command == "nstar":
            if int(cells["n_star"]) != GRIND_NSTAR or float(cells["gain"]) != grind.gain:
                return f"nstar gave {cells}, expected {GRIND_NSTAR} with gain {grind.gain!r}"
            return None
        if command == "limits":
            verdict = analytic.optimal_limit(_spec(self.row("limit_spec", i)))
            cat = "" if verdict.cat_limit is None else verdict.cat_limit
            got = (cells["regime"], float(cells["optimal_limit"]), cells["cat_limit"] and float(cells["cat_limit"]))
            if got != (verdict.regime.value, verdict.optimal_limit, cat):
                return f"limits gave {cells}, expected {verdict}"
            return None
        spec = _spec(self.row("spec", i))
        if command == "simulate":
            horizon, stream = self.row("horizon", i), self.row("stream", i)
            if variant == 0:
                exact = policies.exact_policy_gain(spec, policies.cat_policy(), horizon)
            else:
                exact = dp.solve(spec, horizon).gain
            if int(cells["samples"]) != self.samples or int(cells["seed"]) != stream:
                return f"simulate echoed {cells}"
            if abs(float(cells["mean"]) - exact) > mc_bound(exact, self.samples):
                return f"simulate mean {cells['mean']} is too far from exact {exact!r}"
            return None
        flags = spec.classification
        want = {name: str(getattr(flags, name)).lower() for name in core.Classification.__dataclass_fields__}
        got = {name: cells[name] for name in want}
        drifts = (float(cells["g1_off"]), float(cells["g1_def"]))
        if got != want or drifts != (spec.offense.drift, spec.defense.drift):
            return f"classify gave {cells}"
        return None


WORKLOADS = {w.name: w for w in (OptimalScan, PlanCurves, Validate, CliCold)}
