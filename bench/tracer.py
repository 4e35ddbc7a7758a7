"""Per-layer spans recorded from outside the library.

A layer is one module of ``matchplay``. ``Tracer.install`` replaces the
public functions listed in ``SPANS`` with wrappers on their module
attributes, so calls between modules (``verify`` -> ``dp``,
``dp.gain_curve`` -> ``policies.lead_policy_curves``) and calls inside a
module through its own globals are both seen. Nothing under ``src/`` is
edited; ``uninstall`` puts the original functions back.

Work counts are computed from the problem size in the call's arguments, not
read from the implementation, so they stay comparable across commits.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import NamedTuple


def dp_cells(n: int) -> int:
    """Bellman cells of one backward sweep of horizon ``n``.

    Stage k has 2*min(k, n-k) + 1 undecided reachable scores; the sum over
    k = 1..n is n + 2*floor(n^2/4).
    """
    return n + 2 * (n * n // 4)


def band_cells(n: int) -> int:
    """Reachable scores summed over the stages of an ``n``-game forward pass.

    After t games the score lies in [-t, t], 2t + 1 cells; summed over
    t = 1..n this is n(n + 2).
    """
    return n * (n + 2)


def trinomial_terms(n: int) -> int:
    """Outcomes (wins i, losses j) of an ``n``-game match with i > j.

    For j losses the wins run from j + 1 to n - j, so the count is
    sum over j = 0..m-1 of (n - 2j) with m = floor((n + 1) / 2).
    """
    m = (n + 1) // 2
    return m * n - m * (m - 1)


def _lead_layers(policy) -> int:
    from matchplay import policies

    return 2 if policies.as_policy(policy).uses_lead_flag else 1


# layer -> function -> (work kind, problem size, work count), each computed
# from the call's own arguments; a kind of None means the function only
# dispatches to other spans
SPANS = {
    "dp": {
        "solve": ("cells", lambda spec, n_games, **kw: (n_games, dp_cells(n_games))),
        "find_optimal_horizon": ("cells", lambda spec, n_max, **kw: (n_max, dp_cells(n_max))),
        "gain_curve": (
            "cells",
            lambda spec, n_max, policies=("optimal",), **kw: (
                n_max,
                dp_cells(n_max) if "optimal" in policies else 0,
            ),
        ),
    },
    "policies": {
        "exact_policy_gain": (
            "cells",
            lambda spec, policy, n_games, **kw: (
                n_games,
                _lead_layers(policy) * band_cells(n_games),
            ),
        ),
        "propagate_policy": (
            "cells",
            lambda spec, policy, n_games, **kw: (n_games, 2 * band_cells(n_games)),
        ),
        # two curves (plain and refined) over two lead-flag layers
        "lead_policy_curves": ("cells", lambda spec, n_max, **kw: (n_max, 4 * band_cells(n_max))),
        "cat_gain_curve": (None, None),
        "cat_plus_gain_curve": (None, None),
        "cat_plus_identity_check": (None, None),
        "brute_force_optimal": (None, None),
    },
    "analytic": {
        "fixed_style_positive_prob": (
            "trinomial_terms",
            lambda style, n_games: (n_games, trinomial_terms(n_games)),
        ),
        "fixed_style_draw_prob": (
            "trinomial_terms",
            lambda style, n_games: (n_games, n_games // 2 + 1),
        ),
        "fixed_style_gain": (None, None),
        "score_distribution": (
            "convolve_cells",
            lambda style, n_games: (n_games, band_cells(n_games)),
        ),
        "fixed_style_gain_curve": (
            "convolve_cells",
            lambda style, n_max: (n_max, band_cells(n_max)),
        ),
        "cat_limit": (None, None),
        "optimal_limit": (None, None),
    },
    "sim": {
        "estimate_gain": (
            "sample_rounds",
            lambda spec, policy, n_games, samples, seed=0: (n_games, samples * n_games),
        ),
        "simulate_match": (
            "sample_rounds",
            lambda spec, policy, n_games, stream=None: (n_games, n_games),
        ),
    },
    "verify": {"run_checks": (None, None)},
    "cli": {"main": (None, None)},
}

# prefix of the line on which a traced CLI process reports its spans
SPANS_MARK = "matchplay-bench-spans:"

# work kind -> (unit of its count, name and unit of its time per unit of work)
WORK_KINDS = {
    "cells": ("cells-computed", "ns_per_cell", "ns/cell"),
    "trinomial_terms": ("terms-computed", "ns_per_trinomial_term", "ns/term"),
    "convolve_cells": ("cells-computed", "ns_per_convolve_cell", "ns/cell"),
    "sample_rounds": ("rounds-computed", "ns_per_sample_round", "ns/round"),
}


class Span(NamedTuple):
    job: int
    span_id: int
    parent_id: int  # -1 for a span no other span caused
    layer: str
    fn: str
    start: float
    end: float
    size: int
    work: int
    failed: bool


class Tracer:
    """Records one span per wrapped call; spans stay in memory until read."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._count = 0  # spans started, which numbers the next one
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for layer, functions in SPANS.items():
            module = importlib.import_module(f"matchplay.{layer}")
            for fn, (_, count) in functions.items():
                original = getattr(module, fn)
                self._originals.append((module, fn, original))
                setattr(module, fn, self._wrap(layer, fn, original, count))

    def uninstall(self) -> None:
        while self._originals:
            module, fn, original = self._originals.pop()
            setattr(module, fn, original)

    def _wrap(self, layer, fn, original, count):
        spans = self.spans
        stack = self._stack

        def span(*args, **kwargs):
            try:
                size, work = count(*args, **kwargs) if count else (0, 0)
            except (TypeError, ValueError):  # bad input: let the library reject it
                size, work = 0, 0
            span_id = self._count
            self._count += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(self.job, span_id, parent, layer, fn, start, end, size, work, failed))

        span.__wrapped__ = original
        return span

    def add(self, spans: list[Span]) -> None:
        """Append spans recorded in another process, renumbered to stay unique."""
        offset = self._count
        self._count += len(spans)
        for s in spans:
            parent = s.parent_id + offset if s.parent_id >= 0 else -1
            self.spans.append(s._replace(job=self.job, span_id=s.span_id + offset, parent_id=parent))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent_id >= 0:
            child[(s.job, s.parent_id)] += s.end - s.start
    return [s.end - s.start - child[(s.job, s.span_id)] for s in spans]


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer calls, self time, work, time per unit of work and errors.

    Counts are totals over the ``jobs`` traced jobs; self time is per job,
    so that it falls when a layer gets faster even though a run lasts a
    fixed time.
    """
    metrics: dict[str, tuple[float, str]] = {}
    selfs = self_times(spans)
    for layer, functions in SPANS.items():
        mine = [(s, t) for s, t in zip(spans, selfs) if s.layer == layer]
        metrics[f"{layer}.calls"] = (len(mine), "count")
        if layer == "cli":
            continue  # its own time is taken from cold-call walls
        metrics[f"{layer}.self_s"] = (sum(t for _, t in mine) / jobs, "s/job")
        for kind in sorted({kind for kind, _ in functions.values() if kind}):
            count_unit, rate_name, rate_unit = WORK_KINDS[kind]
            done = [(s, t) for s, t in mine if functions[s.fn][0] == kind and s.work > 0]
            work = sum(s.work for s, _ in done)
            busy = sum(t for _, t in done)
            metrics[f"{layer}.{kind}"] = (work, count_unit)
            metrics[f"{layer}.{rate_name}"] = (busy * 1e9 / work if work else 0.0, rate_unit)
        if layer == "policies":
            oracle = [t for s, t in mine if s.fn == "brute_force_optimal"]
            metrics["policies.oracle_calls"] = (len(oracle), "count")
            metrics["policies.oracle_self_s"] = (sum(oracle) / jobs, "s/job")
        if layer == "verify":
            total = sum(s.end - s.start for s, _ in mine)
            metrics["verify.total_s"] = (total / len(mine) if mine else 0.0, "s/call")
        else:
            metrics[f"{layer}.errors"] = (sum(s.failed for s, _ in mine), "count")
    return metrics
