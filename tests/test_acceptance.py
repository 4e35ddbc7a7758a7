"""End-to-end acceptance checks for the package's headline guarantees.

Each test asserts one numeric claim at a stated tolerance, asserts a runtime
budget, and prints a single machine-greppable pass line. Timings are taken
as the best of several repeats after a warmup call so that import and
allocator effects do not count against the budget.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

import matchplay as mp
from matchplay.dp import POLICY_LABELS
from matchplay.verify import IDENTITY_OFFENSES, SPEC_GRID, run_checks

from conftest import (
    CHESS_PROBS,
    CURVE_PEAK4_PROBS,
    CURVE_PEAK6_PROBS,
    GRIND_PROBS,
    assert_lines_match_golden,
    make_spec,
)

GOLDEN = Path(__file__).parent / "golden"
EXACT_TOL = 1e-12


def timed(fn, repeats=3):
    """Best wall-clock duration of ``fn`` over ``repeats`` runs, plus its result."""
    fn()  # warmup
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def report(number, name):
    print(f"criterion {number:02d} {name}: PASS")


def test_criterion_01_two_game_anchor(chess):
    result, seconds = timed(lambda: mp.solve(chess, 2), repeats=5)
    assert abs(result.gain - 0.08) <= EXACT_TOL
    assert result.policy.action(2, 0) is mp.Action.OFF
    assert result.policy.action(1, 1) is mp.Action.DEF
    assert result.policy.action(1, -1) is mp.Action.OFF
    assert seconds < 1e-3
    report(1, "two_game_anchor")


def test_criterion_02_interior_optimal_horizon(grind):
    result, seconds = timed(lambda: mp.find_optimal_horizon(grind, 64))
    assert result.horizon == 32
    assert abs(result.gain - 0.453) <= 1e-3
    assert seconds < 0.1
    report(2, "interior_optimal_horizon")


def test_criterion_03_gain_curve_reproduction(curve_peak4, curve_peak6):
    curves = {}
    for tag, spec in (("peak4", curve_peak4), ("peak6", curve_peak6)):
        curve, seconds = timed(lambda s=spec: mp.gain_curve(s, 20, POLICY_LABELS))
        assert seconds < 0.010
        curves[tag] = curve.gains["optimal"]
        # the optimal curve is oracle-checked where enumeration is feasible
        for n in range(1, 5):
            assert abs(curves[tag][n - 1] - mp.brute_force_optimal(spec, n)) <= EXACT_TOL
    # at least one parameter set pays off at a four-game match
    assert curves["peak4"][3] > 0.0
    assert mp.find_optimal_horizon(curve_peak4, 20).horizon == 4
    # both parameter sets are archived as byte-stable CSV goldens
    for tag, probs in (("peak4", CURVE_PEAK4_PROBS), ("peak6", CURVE_PEAK6_PROBS)):
        lines = (GOLDEN / f"curve_{tag}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "N,gain_opt,gain_cat,gain_catplus,gain_off,gain_def"
        assert len(lines) == 21
        spec = make_spec(*probs)
        for n in (1, 4, 20):
            assert float(lines[n].split(",")[1]) == mp.solve(spec, n).gain
    report(3, "gain_curve_reproduction")


def test_criterion_04_oracle_equivalence():
    def full_grid():
        worst = 0.0
        for spec in SPEC_GRID:
            for n in range(1, 5):
                worst = max(worst, abs(mp.solve(spec, n).gain - mp.brute_force_optimal(spec, n)))
        return worst

    t0 = time.perf_counter()
    worst = full_grid()
    seconds = time.perf_counter() - t0
    assert len(SPEC_GRID) >= 20
    assert worst <= EXACT_TOL
    assert seconds < 30.0
    report(4, "oracle_equivalence")


def test_criterion_05_lead_protect_limit_safe_defense():
    spec = make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0)
    gain, seconds = timed(lambda: mp.exact_policy_gain(spec, mp.cat_policy(), 500))
    assert abs(gain - (2.0 * 0.3 / 0.7 - 1.0)) <= 1e-3
    assert abs(gain + 1.0 / 7.0) <= 1e-3
    assert seconds < 1.0
    report(5, "lead_protect_limit_safe_defense")


def test_criterion_06_lead_protect_trend_fair_defense():
    spec = make_spec(0.45, 0.0, 0.55, 0.1, 0.8, 0.1)
    limit = 0.45 / 0.55 - 1.0
    curve, seconds = timed(lambda: mp.cat_gain_curve(spec, 4000), repeats=1)
    near_1000 = abs(float(curve[999]) - limit)
    near_4000 = abs(float(curve[3999]) - limit)
    assert near_4000 <= near_1000
    assert near_4000 <= 0.05
    assert seconds < 60.0
    report(6, "lead_protect_trend_fair_defense")


def test_criterion_07_lead_protect_envelope_identity():
    safe = mp.make_distribution(0.0, 1.0, 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for probs in IDENTITY_OFFENSES:
        spec = mp.MatchSpec(mp.make_distribution(*probs), safe)
        report_ = mp.cat_plus_identity_check(spec, 200)
        worst = max(worst, report_.max_discrepancy)
    seconds = time.perf_counter() - t0
    assert len(IDENTITY_OFFENSES) >= 10
    assert worst <= EXACT_TOL
    assert seconds < 10.0
    report(7, "lead_protect_envelope_identity")


def test_criterion_08_long_horizon_tails():
    t0 = time.perf_counter()
    sinking = make_spec(0.4, 0.0, 0.6, 0.1, 0.7, 0.2)
    assert mp.solve(sinking, 500).gain <= -0.9
    floored = make_spec(0.4, 0.0, 0.6, 0.15, 0.7, 0.15)
    gains = mp.gain_curve(floored, 2000).gains["optimal"]
    assert float(np.min(gains)) >= 0.0
    assert gains[1999] < gains[63]
    seconds = time.perf_counter() - t0
    assert seconds < 60.0
    report(8, "long_horizon_tails")


def test_criterion_09_property_suites():
    t0 = time.perf_counter()
    ran = run_checks(seed=0, draws=100)
    seconds = time.perf_counter() - t0
    # what `matchplay verify` prints at its defaults
    assert_lines_match_golden(ran, GOLDEN / "verify_seed0.txt")
    checks = {c.name: c for c in ran}
    for name in (
        "dominance_monotonicity",
        "parity_inequality",
        "parity_counterexample",
        "heavy_defense_nonpositive",
        "fair_defense_floor",
        "safe_defense_monotone",
    ):
        assert checks[name].passed, checks[name].line()
    assert seconds < 300.0
    report(9, "property_suites")


def test_criterion_10_monte_carlo_consistency(chess, grind, curve_peak4):
    safe = make_spec(0.30, 0.0, 0.70, 0.00, 1.00, 0.00)
    drawy = make_spec(0.20, 0.3, 0.50, 0.10, 0.60, 0.30)
    fair = make_spec(0.40, 0.0, 0.60, 0.15, 0.70, 0.15)

    def opt(spec, n):
        return mp.table_policy(mp.solve(spec, n).policy)

    triples = [
        (chess, "off", 2), (chess, "def", 2), (chess, mp.cat_policy(), 8),
        (chess, mp.cat_plus_policy(chess), 9), (chess, opt(chess, 6), 6),
        (grind, mp.cat_policy(), 16), (grind, opt(grind, 12), 12), (grind, "off", 10),
        (curve_peak4, mp.cat_policy(), 10),
        (curve_peak4, mp.cat_plus_policy(curve_peak4), 11),
        (curve_peak4, opt(curve_peak4, 4), 4),
        (safe, mp.cat_policy(), 12), (safe, mp.cat_plus_policy(safe), 7), (safe, "off", 5),
        (drawy, mp.cat_policy(), 9), (drawy, opt(drawy, 8), 8), (drawy, "off", 7),
        (fair, mp.cat_policy(), 10), (fair, opt(fair, 10), 10), (fair, "def", 12),
    ]
    t0 = time.perf_counter()
    misses = 0
    for i, (spec, pol, n) in enumerate(triples):
        policy = mp.as_policy(pol)
        if isinstance(policy, mp.TablePolicy):
            exact = mp.solve(spec, n).gain
        else:
            exact = mp.exact_policy_gain(spec, policy, n)
        est = mp.estimate_gain(spec, policy, n, 100_000, seed=1000 + i)
        if abs(est.mean - exact) > 5.0 * est.std_error:
            misses += 1
    seconds = time.perf_counter() - t0
    assert len(triples) == 20
    assert misses <= 1
    assert seconds < 120.0
    report(10, "monte_carlo_consistency")
