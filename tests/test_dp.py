"""Tests for the backward-induction solver and its tables.

The two-game running example is checked against hand arithmetic; larger
horizons lean on cross-route identities (pruned vs unpruned sweeps, curve vs
single solve, solver vs forward evaluation of its own policy).
"""

from __future__ import annotations

import numpy as np
import pytest

from matchplay import (
    Action,
    GainCurve,
    HorizonTooLarge,
    InvalidHorizon,
    InvalidState,
    MatchPlayError,
    exact_policy_gain,
    find_optimal_horizon,
    gain_curve,
    solve,
    table_policy,
)
from matchplay.dp import POLICY_LABELS

from conftest import make_spec

EXACT_TOL = 1e-12


def random_spec(rng):
    pd = rng.uniform(0.0, 0.5)
    pw = (1.0 - pd) * rng.uniform(0.0, 1.0)
    qd = rng.uniform(pd, 1.0)
    qw = (1.0 - qd) * rng.uniform(0.0, 1.0)
    return make_spec(pw, pd, 1.0 - pd - pw, qw, qd, 1.0 - qd - qw)


class TestTwoGameExample:
    """Hand-checked values for the losing offense vs drawish defense pair."""

    def test_gain(self, chess):
        assert abs(solve(chess, 2).gain - 0.08) <= EXACT_TOL

    def test_opening_action_attacks(self, chess):
        assert solve(chess, 2).policy.action(2, 0) is Action.OFF

    def test_protects_after_win_attacks_after_loss(self, chess):
        policy = solve(chess, 2).policy
        assert policy.action(1, 1) is Action.DEF
        assert policy.action(1, -1) is Action.OFF

    def test_one_game_values_by_hand(self, chess):
        # U_1(1) = defend: 0.10 + 0.75; U_1(0) = defend: -0.05;
        # U_1(-1) = attack: 0.45 * 0 - 0.55
        values = solve(chess, 2).values
        assert values.value(1, 1) == pytest.approx(0.85, abs=EXACT_TOL)
        assert values.value(1, 0) == pytest.approx(-0.05, abs=EXACT_TOL)
        assert values.value(1, -1) == pytest.approx(-0.55, abs=EXACT_TOL)

    def test_terminal_row_is_the_sign(self, chess):
        values = solve(chess, 2).values
        assert values.value(0, 0) == 0.0
        assert values.value(0, 2) == 1.0
        assert values.value(0, -2) == -1.0


class TestValueTable:
    def test_forced_states_read_as_sign(self, chess):
        values = solve(chess, 6).values
        # with 2 games left a 3-point lead is already decided
        assert values.value(2, 3) == 1.0
        assert values.value(2, -3) == -1.0

    def test_late_unreachable_states_read_as_sign(self, chess):
        values = solve(chess, 6).values
        # with 5 games remaining only one game was played, so |score| <= 1
        assert values.value(5, 2) == 1.0
        assert values.value(5, -4) == -1.0

    def test_gain_property(self, chess):
        result = solve(chess, 5)
        assert result.values.gain == result.gain

    def test_stage_range_checked(self, chess):
        values = solve(chess, 4).values
        with pytest.raises(ValueError):
            values.value(5, 0)
        with pytest.raises(ValueError):
            values.value(-1, 0)
        with pytest.raises(ValueError):
            values.value(2, 9)

    def test_off_lattice_queries_raise_a_library_error(self, chess):
        result = solve(chess, 4)
        replay = table_policy(result.policy)
        lookups = (
            result.values.value,
            result.policy.action,
            lambda stage, score: replay.decide_row(stage, np.array([0, score]), False),
        )
        assert issubclass(InvalidState, MatchPlayError)
        for lookup in lookups:
            for stage, score in ((5, 0), (2, 9), (2, -9)):
                with pytest.raises(InvalidState):
                    lookup(stage, score)

    def test_policy_stage_range_checked(self, chess):
        policy = solve(chess, 4).policy
        with pytest.raises(ValueError):
            policy.action(0, 0)
        with pytest.raises(ValueError):
            policy.action(5, 0)

    def test_policy_outside_band_defends(self, chess):
        policy = solve(chess, 6).policy
        assert policy.action(2, 3) is Action.DEF
        assert policy.action(5, -3) is Action.DEF

    def test_values_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec = random_spec(rng)
            gains = gain_curve(spec, 50).gains["optimal"]
            assert np.all(gains <= 1.0) and np.all(gains >= -1.0)


class TestPruning:
    def test_same_bits_with_and_without(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            spec = random_spec(rng)
            n = int(rng.integers(1, 41))
            pruned = solve(spec, n, prune=True)
            full = solve(spec, n, prune=False)
            assert pruned.gain == full.gain
            for k in range(n + 1):
                assert np.array_equal(pruned.values.rows[k], full.values.rows[k])
            for k in range(n):
                assert np.array_equal(pruned.policy.rows[k], full.policy.rows[k])

    def test_curve_same_bits(self, chess):
        a = gain_curve(chess, 64, prune=True).gains["optimal"]
        b = gain_curve(chess, 64, prune=False).gains["optimal"]
        assert np.array_equal(a, b)

    def test_evaluation_counts_at_64(self, chess):
        # diamond band: sum of 2*min(k, 64-k)+1 = 2112 cells; the full
        # reachable triangle is 64^2 = 4096, so pruning removes 48.4%
        assert solve(chess, 64, prune=True).values.evaluations == 2112
        assert solve(chess, 64, prune=False).values.evaluations == 4096


class TestGainCurve:
    def test_matches_single_solves(self, chess):
        curve = gain_curve(chess, 12).gains["optimal"]
        for n in range(1, 13):
            assert curve[n - 1] == solve(chess, n).gain

    def test_horizons_axis(self, chess):
        curve = gain_curve(chess, 5)
        assert curve.horizons.tolist() == [1, 2, 3, 4, 5]

    def test_entries(self, chess):
        entries = gain_curve(chess, 3).entries("optimal")
        assert [n for n, _ in entries] == [1, 2, 3]
        assert entries[1][1] == pytest.approx(0.08, abs=EXACT_TOL)

    def test_all_labels(self, chess):
        curve = gain_curve(chess, 8, POLICY_LABELS)
        assert list(curve.gains) == list(POLICY_LABELS)
        assert isinstance(curve, GainCurve)

    def test_duplicate_labels_collapse(self, chess):
        curve = gain_curve(chess, 4, ("cat", "cat", "optimal"))
        assert sorted(curve.gains) == ["cat", "optimal"]

    def test_bare_label_is_one_label(self, chess):
        curve = gain_curve(chess, 3, "optimal")
        assert list(curve.gains) == ["optimal"]

    def test_unknown_label_rejected(self, chess):
        with pytest.raises(ValueError):
            gain_curve(chess, 4, ("optimal", "greedy"))

    def test_optimal_dominates_benchmarks(self, chess):
        curve = gain_curve(chess, 40, POLICY_LABELS).gains
        best = curve["optimal"]
        for label in ("cat", "catplus", "off", "def"):
            assert np.all(curve[label] <= best + EXACT_TOL)


class TestFindOptimalHorizon:
    def test_two_game_example_peaks_at_two(self, chess):
        best = find_optimal_horizon(chess, 10)
        assert best.horizon == 2
        assert best.gain == pytest.approx(0.08, abs=EXACT_TOL)

    def test_interior_peak(self, grind):
        best = find_optimal_horizon(grind, 64)
        assert best.horizon == 32

    def test_smallest_horizon_wins_ties(self):
        # identical fair styles leave nothing to exploit: every gain is
        # exactly zero and the smallest horizon must win the tie
        spec = make_spec(0.1, 0.8, 0.1, 0.1, 0.8, 0.1)
        best = find_optimal_horizon(spec, 30)
        assert best.horizon == 1 and best.gain == 0.0

    def test_agrees_with_curve_argmax(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            spec = random_spec(rng)
            gains = gain_curve(spec, 33).gains["optimal"]
            best = find_optimal_horizon(spec, 33)
            assert best.gain == gains[best.horizon - 1]
            assert best.gain == float(np.max(gains))
            assert not np.any(gains[: best.horizon - 1] >= best.gain)


class TestSolverAgainstForwardEvaluation:
    def test_replaying_the_policy_reproduces_the_gain(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec = random_spec(rng)
            n = int(rng.integers(1, 13))
            result = solve(spec, n)
            replay = exact_policy_gain(spec, table_policy(result.policy), n)
            assert replay == pytest.approx(result.gain, abs=EXACT_TOL)


class TestBudgetsAndValidation:
    def test_solve_budget(self, chess):
        with pytest.raises(HorizonTooLarge):
            solve(chess, 20_001)

    def test_curve_budget(self, chess):
        with pytest.raises(HorizonTooLarge):
            gain_curve(chess, 100_001)

    def test_budget_override(self, chess):
        with pytest.raises(HorizonTooLarge):
            solve(chess, 50, max_horizon=10)
        assert solve(chess, 50, max_horizon=50).gain == solve(chess, 50).gain

    def test_bad_horizons_rejected(self, chess):
        for bad in (0, -3, 2.5, "six", None, True, np.True_, float("inf")):
            with pytest.raises(InvalidHorizon):
                solve(chess, bad)
        with pytest.raises(InvalidHorizon):
            find_optimal_horizon(chess, 0)
