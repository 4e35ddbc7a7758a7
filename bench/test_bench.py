"""Tests of the benchmark itself: work counts, spans, parsers and checks.

Run from the repository root: python -m pytest bench -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from matchplay import analytic, core, dp, policies  # noqa: E402
from worker import tail  # noqa: E402

SPEC = core.MatchSpec.from_probs(0.45, 0.05, 0.50, 0.10, 0.75, 0.15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 101, 2000])
def test_dp_cells_equal_solver_evaluations(n):
    assert tracer.dp_cells(n) == dp.solve(SPEC, n).values.evaluations
    if n == 2000:
        assert tracer.dp_cells(n) == 2_002_000


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_band_cells_are_the_reachable_scores(n):
    dist = policies.propagate_policy(SPEC, policies.cat_policy(), n)
    support = sum(int(np.count_nonzero(dist.score_distribution(t))) for t in range(1, n + 1))
    assert support == tracer.band_cells(n)
    steps = sum(
        int(np.count_nonzero(analytic.score_distribution(SPEC.offense, t))) for t in range(1, n + 1)
    )
    assert steps == tracer.band_cells(n)


@pytest.mark.parametrize("n", range(1, 31))
def test_trinomial_terms_count_winning_outcomes(n):
    pairs = sum(1 for i in range(n + 1) for j in range(n + 1 - i) if i > j)
    assert tracer.trinomial_terms(n) == pairs


def _span(span_id, parent, start, end, layer="dp", fn="solve", job=0):
    return tracer.Span(job, span_id, parent, layer, fn, start, end, 0, 0, False)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(2, 1, 1.0, 2.0),  # grandchild
        _span(1, 0, 0.5, 3.0),  # child
        _span(3, 0, 3.0, 3.5),  # child
        _span(0, -1, 0.0, 4.0),  # root
        _span(0, -1, 0.0, 1.0, job=1),  # same id in another job
    ]
    assert tracer.self_times(spans) == pytest.approx([1.0, 1.5, 0.5, 1.0, 1.0])


def test_wrappers_see_nested_calls_and_are_removed():
    original = dp.gain_curve
    t = tracer.Tracer()
    t.install()
    try:
        dp.gain_curve(SPEC, 12, ("optimal", "cat", "off"))
        analytic.fixed_style_gain(SPEC.offense, 9)
    finally:
        t.uninstall()
    assert dp.gain_curve is original
    by_fn = {s.fn: s for s in t.spans}
    curve = by_fn["gain_curve"]
    assert by_fn["lead_policy_curves"].parent_id == curve.span_id
    assert by_fn["fixed_style_gain_curve"].parent_id == curve.span_id
    # calls inside a module go through its globals and are seen too
    gain = by_fn["fixed_style_gain"]
    inner = [s for s in t.spans if s.fn == "fixed_style_positive_prob"]
    assert len(inner) == 2 and all(s.parent_id == gain.span_id for s in inner)

    metrics = tracer.layer_metrics(t.spans, jobs=1)
    assert metrics["dp.cells"] == (tracer.dp_cells(12), "cells-computed")
    assert metrics["policies.cells"][0] == 4 * tracer.band_cells(12)
    assert metrics["analytic.trinomial_terms"][0] == 2 * tracer.trinomial_terms(9)
    assert metrics["analytic.convolve_cells"][0] == tracer.band_cells(12)
    assert metrics["dp.errors"] == (0, "count")


def test_failed_call_is_counted_and_reraised():
    t = tracer.Tracer()
    t.install()
    try:
        with pytest.raises(Exception):
            dp.solve(SPEC, 0)
    finally:
        t.uninstall()
    assert tracer.layer_metrics(t.spans, jobs=1)["dp.errors"] == (1, "count")


def test_import_times_count_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy._core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.testing",
        "import time:        70 |        120 |       scipy._lib",
        "import time:       400 |        520 |     scipy.special",
        "import time:      1000 |       1820 |   matchplay.analytic",
        "import time:        10 |       1830 | matchplay.cli",
    ])
    ms = run.import_times(text)
    assert ms["numpy"] == pytest.approx(0.35)
    assert ms["scipy"] == pytest.approx(0.52)
    assert ms["analytic"] == pytest.approx(1.82)
    assert ms["cli"] == pytest.approx(1.83)
    assert ms["dp"] == 0.0


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert tail(samples, 95.0) == (90.0, 90.0)
    assert tail(samples * 4, 95.0) == (95.0, 95.0)


def test_mc_bound_does_not_collapse_with_the_sample_spread():
    assert workloads.mc_bound(-0.99, 20_000) > 0.0
    assert workloads.mc_bound(1.0, 20_000) == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(3).digest() == make(3).digest()
    assert make(3).digest() != make(4).digest()


def test_every_cycle_holds_every_size():
    rng = np.random.default_rng(0)
    sizes = workloads.cycled(rng, 80, [5, 9, 2, 7])
    cycles = sizes.reshape(20, 4)
    assert all(sorted(c) == [2, 5, 7, 9] for c in cycles)
    assert len({tuple(c) for c in cycles}) > 1


@pytest.mark.parametrize("name, limit", [("optimal_scan", 300), ("plan_curves", 120)])
def test_jobs_pass_their_checks(name, limit):
    w = workloads.WORKLOADS[name](7)
    small = [i for i in range(1, w.pool) if w.row("n", i) <= limit][:6]
    for i in small:
        elapsed, problem = w.job(i, False, None)
        assert problem is None and elapsed > 0.0


def test_validate_jobs_of_every_kind_pass_their_checks():
    w = workloads.Validate(7)
    kinds = set()
    for i in range(1, 10):
        elapsed, problem = w.job(i, False, None)
        assert problem is None and elapsed > 0.0
        kinds.add(workloads.KINDS[w.row("job", i)[0]])
    assert kinds == set(workloads.KINDS)


def test_scan_check_catches_a_wrong_horizon():
    spec = core.MatchSpec.from_probs(0.49, 0.0, 0.51, 0.02, 0.95, 0.03)
    solved = dp.solve(spec, 64)
    best = dp.find_optimal_horizon(spec, 64)
    rng = random.Random(0)
    assert workloads.OptimalScan._check(spec, 64, best, solved, rng) is None
    wrong = dp.HorizonResult(best.horizon + 1, best.gain)
    assert "disagrees" in workloads.OptimalScan._check(spec, 64, wrong, solved, rng)


def test_cli_jobs_pass_and_bad_output_is_caught():
    w = workloads.CliCold(5)
    for i in range(len(w.commands)):
        elapsed, problem = w.job(i, False, None)
        assert problem is None and elapsed > 0.0
    assert w.finish() == []
    nstar = next(i for i, _ in w.outputs if w.command(i)[0] == "nstar")
    curve = next(i for i, _ in w.outputs if w.command(i)[0] == "curve")
    w.outputs = [(nstar, "n_star,gain\n31,0.1\n"), (curve, "N,gain_opt\n")]
    assert [i for i, _ in w.finish()] == [nstar, curve]


def test_traced_cli_job_reports_child_spans():
    w = workloads.CliCold(5)
    t = tracer.Tracer()
    elapsed, problem = w.job(2, True, t)  # nstar
    assert problem is None
    assert {(s.layer, s.fn) for s in t.spans} == {("cli", "main"), ("dp", "find_optimal_horizon")}
