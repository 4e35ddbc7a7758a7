"""Tests for the closed-form fixed-style probabilities and long-match limits.

The trinomial sum and the stage-by-stage convolution are two independent
routes to the same distribution; most tests here play them against each
other or against tiny hand-enumerable matches.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from matchplay import (
    AsymptoticVerdict,
    HorizonTooLarge,
    InvalidHorizon,
    Regime,
    RegimeNotCovered,
    cat_limit,
    fixed_style_draw_prob,
    fixed_style_gain,
    fixed_style_gain_curve,
    fixed_style_positive_prob,
    hitting_probability,
    make_distribution,
    optimal_limit,
    propagate_policy,
    score_distribution,
    sign_expectation,
)
from matchplay import analytic
from matchplay.analytic import step

from conftest import make_spec, reference_step

EXACT_TOL = 1e-12
FORMULA_TOL = 1e-10


def enumerate_gain(style, n):
    """Brute-force reference: sum over all 3^n outcome sequences."""
    probs = (style.win, style.draw, style.loss)
    steps = (1, 0, -1)
    pos = draw = 0.0
    for seq in itertools.product(range(3), repeat=n):
        p = 1.0
        score = 0
        for idx in seq:
            p *= probs[idx]
            score += steps[idx]
        if score > 0:
            pos += p
        elif score == 0:
            draw += p
    return pos, draw


class TestTrinomialAgainstEnumeration:
    # the drawish defense of the running example, all 27 three-game paths
    def test_three_game_defense(self):
        style = make_distribution(0.10, 0.75, 0.15)
        pos, draw = enumerate_gain(style, 3)
        assert fixed_style_positive_prob(style, 3) == pytest.approx(pos, abs=EXACT_TOL)
        assert fixed_style_draw_prob(style, 3) == pytest.approx(draw, abs=EXACT_TOL)

    def test_three_game_frozen_values(self):
        # frozen from the 27-path sum: pos = 3*0.1*0.75^2 + 3*0.01*0.75
        #   + 6/2*0.01*0.15 + 0.001 = 0.19675, and likewise for the mirror
        style = make_distribution(0.10, 0.75, 0.15)
        assert fixed_style_positive_prob(style, 3) == pytest.approx(0.19675, abs=EXACT_TOL)
        assert fixed_style_draw_prob(style, 3) == pytest.approx(0.489375, abs=EXACT_TOL)
        assert fixed_style_gain(style, 3) == pytest.approx(-0.117125, abs=FORMULA_TOL)

    def test_two_game_offense(self):
        style = make_distribution(0.45, 0.0, 0.55)
        pos, draw = enumerate_gain(style, 2)
        assert pos == pytest.approx(0.45**2, abs=EXACT_TOL)
        assert fixed_style_positive_prob(style, 2) == pytest.approx(pos, abs=EXACT_TOL)
        assert fixed_style_gain(style, 2) == pytest.approx(0.45**2 - 0.55**2, abs=FORMULA_TOL)

    def test_random_styles_up_to_five_games(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = rng.uniform(0.0, 0.8)
            w = (1.0 - d) * rng.uniform(0.0, 1.0)
            style = make_distribution(w, d, 1.0 - d - w)
            n = int(rng.integers(1, 6))
            pos, draw = enumerate_gain(style, n)
            assert fixed_style_positive_prob(style, n) == pytest.approx(pos, abs=FORMULA_TOL)
            assert fixed_style_draw_prob(style, n) == pytest.approx(draw, abs=FORMULA_TOL)


def exact_trinomial(hundredths, n):
    """P(score > 0) and P(score = 0) after n games, as Fractions.

    ``hundredths`` are the win, draw and loss probabilities in whole
    hundredths, so every term is exact.
    """
    w, d, l = (Fraction(k, 100) for k in hundredths)
    positive = zero = Fraction(0)
    for i in range(n + 1):
        for j in range(n - i + 1):
            term = comb(n, i) * comb(n - i, j) * w**i * l**j * d ** (n - i - j)
            if i > j:
                positive += term
            elif i == j:
                zero += term
    return positive, zero


class TestExactTrinomialAnchor:
    # short decimals, with zero probabilities and a sure draw among them
    @pytest.mark.parametrize(
        "hundredths",
        [(45, 0, 55), (10, 75, 15), (33, 33, 34), (5, 90, 5), (0, 30, 70), (49, 2, 49),
         (100, 0, 0), (0, 100, 0), (1, 2, 97)],
    )
    def test_closed_form_matches_exact_sums(self, hundredths):
        style = make_distribution(*(k / 100 for k in hundredths))
        for n in range(1, 31):
            positive, zero = exact_trinomial(hundredths, n)
            assert abs(fixed_style_positive_prob(style, n) - float(positive)) <= EXACT_TOL
            assert abs(fixed_style_draw_prob(style, n) - float(zero)) <= EXACT_TOL


class TestStencil:
    def test_reused_rows_give_the_allocating_result(self):
        # stale values anywhere in the new band [-t-1, t+1] are overwritten,
        # and the scratch row's old contents never leak into the result
        rng = np.random.default_rng(5)
        n = 6
        for t in range(n):
            mass = np.zeros(2 * n + 1)
            mass[n - t : n + t + 1] = rng.uniform(size=2 * t + 1)
            out = np.zeros(2 * n + 1)
            out[n - t - 1 : n + t + 2] = np.nan
            tmp = np.full(2 * n + 1, np.nan)
            step(mass, t, 0.3, 0.5, 0.2, out, tmp)
            assert out.tobytes() == reference_step(mass, t, 0.3, 0.5, 0.2).tobytes()

    def test_returned_arrays_own_their_memory(self, chess):
        # the walk reuses its rows, so nothing returned may be a view of them
        assert score_distribution(chess.offense, 9).base is None
        assert all(stage.base is None for stage in propagate_policy(chess, "Off", 9).stages)


class TestConvolutionRoute:
    def test_mass_is_a_distribution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.uniform(0.0, 0.9)
            w = (1.0 - d) * rng.uniform(0.0, 1.0)
            style = make_distribution(w, d, 1.0 - d - w)
            n = int(rng.integers(1, 40))
            mass = score_distribution(style, n)
            assert mass.shape == (2 * n + 1,)
            assert np.all(mass >= 0.0)
            assert abs(float(mass.sum()) - 1.0) <= EXACT_TOL

    def test_agrees_with_trinomial_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            d = rng.uniform(0.0, 0.9)
            w = (1.0 - d) * rng.uniform(0.0, 1.0)
            style = make_distribution(w, d, 1.0 - d - w)
            n = int(rng.integers(1, 60))
            mass = score_distribution(style, n)
            pos = float(mass[n + 1 :].sum())
            zero = float(mass[n])
            assert fixed_style_positive_prob(style, n) == pytest.approx(pos, abs=FORMULA_TOL)
            assert fixed_style_draw_prob(style, n) == pytest.approx(zero, abs=FORMULA_TOL)

    def test_agreement_holds_for_long_matches(self):
        style = make_distribution(0.45, 0.0, 0.55)
        n = 2000
        mass = score_distribution(style, n)
        pos = float(mass[n + 1 :].sum())
        assert fixed_style_positive_prob(style, n) == pytest.approx(pos, abs=FORMULA_TOL)

    def test_curve_matches_per_horizon_gain(self):
        style = make_distribution(0.2, 0.3, 0.5)
        curve = fixed_style_gain_curve(style, 12)
        for n in range(1, 13):
            assert curve[n - 1] == pytest.approx(fixed_style_gain(style, n), abs=FORMULA_TOL)

    # zero win, loss or draw probabilities reach the trinomial as 0^0 = 1
    # and 0^k = 0 for k > 0; the convolution route multiplies them plainly
    @pytest.mark.parametrize(
        "probs",
        [
            (0.0, 0.3, 0.7),
            (0.4, 0.6, 0.0),
            (0.45, 0.0, 0.55),
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
            (0.5, 0.0, 0.5),
            (0.0, 0.5, 0.5),
        ],
        ids=["no_win", "no_loss", "no_draw", "sure_loss", "sure_draw", "sure_win",
             "fair_no_draw", "no_win_even_draw"],
    )
    def test_degenerate_styles_agree(self, probs):
        style = make_distribution(*probs)
        for n in (1, 2, 3, 7, 50, 199, 200):
            mass = score_distribution(style, n)
            pos = float(mass[n + 1 :].sum())
            zero = float(mass[n])
            assert fixed_style_positive_prob(style, n) == pytest.approx(pos, abs=FORMULA_TOL)
            assert fixed_style_draw_prob(style, n) == pytest.approx(zero, abs=FORMULA_TOL)

    def test_fair_style_gain_is_exactly_zero(self):
        # the convolution keeps symmetric distributions bitwise symmetric
        style = make_distribution(0.25, 0.5, 0.25)
        curve = fixed_style_gain_curve(style, 200)
        assert np.all(curve == 0.0)


class TestHorizonBudget:
    @pytest.mark.parametrize(
        "fn",
        [
            fixed_style_positive_prob,
            fixed_style_draw_prob,
            fixed_style_gain,
            fixed_style_gain_curve,
            score_distribution,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_past_the_budget_raises_before_any_work(self, fn):
        style = make_distribution(0.2, 0.5, 0.3)
        for n in (10**9, analytic.DEFAULT_VALUE_HORIZON_BUDGET + 1):
            with pytest.raises(HorizonTooLarge):
                fn(style, n)
        with pytest.raises(HorizonTooLarge):
            fn(style, 8, max_horizon=7)
        with pytest.raises(InvalidHorizon):
            fn(style, 8, max_horizon=0)

    def test_a_raised_budget_reaches_the_inner_calls(self, monkeypatch):
        style = make_distribution(0.2, 0.5, 0.3)
        want = fixed_style_gain(style, 8)
        # a default of 4 stages stands in for a budget a caller raises past
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 4)
        with pytest.raises(HorizonTooLarge):
            fixed_style_gain(style, 8)
        assert fixed_style_gain(style, 8, max_horizon=8) == want


class TestSignExpectation:
    def test_symmetric_mass_scores_zero(self):
        mass = np.array([0.2, 0.1, 0.4, 0.1, 0.2])
        assert sign_expectation(mass, 2) == 0.0

    def test_hand_value(self):
        mass = np.array([0.1, 0.2, 0.3, 0.4])  # scores -2..1 around center 2
        assert sign_expectation(mass, 2) == pytest.approx(0.4 - 0.3, abs=EXACT_TOL)

    def test_rounding_past_a_sure_result_is_clamped(self):
        ulp = np.spacing(1.0)
        assert sign_expectation(np.array([0.0, 0.0, 1.0 + ulp]), 1) == 1.0
        assert sign_expectation(np.array([0.5, 0.5 + ulp, 0.0, 0.0]), 2) == -1.0


class TestHittingProbability:
    def test_never_wins(self):
        assert hitting_probability(make_distribution(0.0, 0.5, 0.5)) == 0.0

    def test_favorable_or_fair(self):
        assert hitting_probability(make_distribution(0.5, 0.0, 0.5)) == 1.0
        assert hitting_probability(make_distribution(0.6, 0.1, 0.3)) == 1.0

    def test_wins_but_never_loses(self):
        assert hitting_probability(make_distribution(0.3, 0.7, 0.0)) == 1.0

    def test_strictly_losing_ratio(self):
        assert hitting_probability(make_distribution(0.3, 0.0, 0.7)) == pytest.approx(
            3.0 / 7.0, abs=EXACT_TOL
        )


class TestLimits:
    def test_cat_limit_safe_defense(self):
        spec = make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0)
        assert cat_limit(spec) == pytest.approx(2.0 * (0.3 / 0.7) - 1.0, abs=EXACT_TOL)

    def test_cat_limit_fair_defense(self):
        spec = make_spec(0.45, 0.0, 0.55, 0.1, 0.8, 0.1)
        assert cat_limit(spec) == pytest.approx(0.45 / 0.55 - 1.0, abs=EXACT_TOL)

    def test_cat_limit_requires_weak_player(self):
        with pytest.raises(RegimeNotCovered):
            cat_limit(make_spec(0.6, 0.0, 0.4, 0.1, 0.8, 0.1))

    def test_cat_limit_requires_safe_or_fair_defense(self):
        with pytest.raises(RegimeNotCovered):
            cat_limit(make_spec(0.45, 0.0, 0.55, 0.10, 0.75, 0.15))

    def test_cat_limit_refuses_motionless_offense(self):
        with pytest.raises(RegimeNotCovered):
            cat_limit(make_spec(0.0, 1.0, 0.0, 0.0, 1.0, 0.0))

    def test_optimal_limit_both_strictly_losing(self):
        verdict = optimal_limit(make_spec(0.45, 0.0, 0.55, 0.10, 0.75, 0.15))
        assert verdict == AsymptoticVerdict(Regime.BOTH_STRICTLY_LOSING, -1.0, None)

    def test_optimal_limit_fair_non_safe(self):
        verdict = optimal_limit(make_spec(0.4, 0.0, 0.6, 0.15, 0.7, 0.15))
        assert verdict.regime is Regime.FAIR_NON_SAFE
        assert verdict.optimal_limit == 0.0
        assert verdict.cat_limit == pytest.approx(0.4 / 0.6 - 1.0, abs=EXACT_TOL)

    def test_optimal_limit_safe_defense_losing_chase(self):
        verdict = optimal_limit(make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0))
        assert verdict.regime is Regime.SAFE_DEFENSE
        assert verdict.optimal_limit == 0.0
        assert verdict.cat_limit == pytest.approx(2.0 * 3.0 / 7.0 - 1.0, abs=EXACT_TOL)

    def test_optimal_limit_refuses_fair_offense(self):
        with pytest.raises(RegimeNotCovered):
            optimal_limit(make_spec(0.3, 0.4, 0.3, 0.1, 0.8, 0.1))

    def test_optimal_limit_refuses_strong_player(self):
        with pytest.raises(RegimeNotCovered):
            optimal_limit(make_spec(0.5, 0.1, 0.4, 0.1, 0.8, 0.1))
