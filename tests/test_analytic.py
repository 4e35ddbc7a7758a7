"""Tests for the closed-form fixed-style probabilities and long-match limits.

The trinomial sum and the stage-by-stage convolution are two independent
routes to the same distribution; most tests here play them against each
other or against tiny hand-enumerable matches.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from matchplay import (
    AsymptoticVerdict,
    HorizonTooLarge,
    InvalidState,
    Regime,
    RegimeNotCovered,
    cat_limit,
    cat_plus_policy,
    cat_policy,
    fixed_style_draw_prob,
    fixed_style_gain,
    fixed_style_gain_curve,
    fixed_style_positive_prob,
    gain_curve,
    hitting_probability,
    make_distribution,
    optimal_limit,
    propagate_policy,
    score_distribution,
    sign_expectation,
    solve,
    table_policy,
)
from matchplay import analytic
from matchplay.analytic import stencil
from matchplay.policies import offense_row
from matchplay.verify import CHESS, SPEC_GRID

from conftest import make_spec, reference_step

EXACT_TOL = 1e-12
FORMULA_TOL = 1e-10

# stages per block of the walk's views
BLOCK = analytic._BLOCK_STAGES


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


def per_stage_gains(style, n: int) -> np.ndarray:
    """The fixed-style curve one stage at a time: ``sign_expectation`` of each reference step."""
    mass = np.zeros(2 * n + 1)
    mass[n] = 1.0
    gains = []
    for played in range(n):
        mass = reference_step(mass, played, style.win, style.draw, style.loss)
        gains.append(sign_expectation(mass, n))
    return np.array(gains)


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
        # stale values in every cell of the output and scratch rows never leak
        # into the result, forward over the exact band and over views as wide
        # as a later stage's band, with scalar and per-cell coefficients, and
        # backward on value rows; every cell past the views keeps its NaN
        rng = np.random.default_rng(5)
        n = 6
        c = n + 1  # rows of 2n + 3 cells: a guard cell past either end
        for t in range(n):
            mass = np.zeros(2 * n + 3)
            mass[c - t : c + t + 1] = rng.uniform(size=2 * t + 1)
            # per-cell coefficients at their source cells, +0 past the band
            cells = np.zeros((3, 2 * n + 3))
            cells[:, c - t : c + t + 1] = rng.uniform(size=(3, 2 * t + 1))
            band_coefficients = tuple(cells[:, c - t : c + t + 1])
            for span in range(t + 1, n + 1):
                # the output band [-span, span], its sources one cell down and one up
                lo, mid, hi = (slice(c - span + s, c + span + 1 + s) for s in (-1, 0, 1))
                shifted = cells[0, lo], cells[1, mid], cells[2, hi]
                for coefficients, per_cell in (
                    (tuple(map(np.array, (0.3, 0.5, 0.2))), (0.3, 0.5, 0.2)),
                    (shifted, band_coefficients),
                ):
                    out, tmp = np.full((2, 2 * n + 3), np.nan)
                    stencil(mass[lo], mass[mid], mass[hi], *coefficients, out[mid], tmp[mid])
                    want = reference_step(mass[1:-1], t, *per_cell)
                    assert out[mid].tobytes() == want[mid.start - 1 : mid.stop - 1].tobytes()
                    for row in (out, tmp):
                        assert np.isnan(np.r_[row[: mid.start], row[mid.stop :]]).all()
        # backward, as the sweep calls it: a win leads to the value one score up
        spec = make_spec(0.3, 0.1, 0.6, 0.15, 0.7, 0.15)
        for style in (spec.offense, spec.defense):
            w, d, l = style.win, style.draw, style.loss
            coefficients = analytic.style_coefficients(style)
            for width in (1, 2, 7, 40):
                values = rng.uniform(-1.0, 1.0, size=width + 2)
                up, level, down = values[2:], values[1:-1], values[:-2]
                out, tmp = np.full((2, width + 4), np.nan)
                inner = slice(2, width + 2)
                stencil(up, level, down, *coefficients, out[inner], tmp[inner])
                want = (w * up + l * down) + d * level  # band_reference's expression
                assert out[inner].tobytes() == want.tobytes()
                for row in (out, tmp):
                    assert np.isnan(np.r_[row[:2], row[width + 2 :]]).all()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_walk_rows_hold_plus_zero_outside_the_band(self, n):
        # the block views step past each stage's band, so the cells there
        # need exact +0; a table policy steps the block views with per-cell
        # coefficients at every stage, the refined rule at its last stage
        spec = make_spec(0.45, -0.0, 0.55, -0.0, 1.0, -0.0)
        table = table_policy(solve(spec, n).policy)
        for policy in (cat_policy(), cat_plus_policy(spec), table):
            rule = functools.partial(offense_row, policy)
            walk = analytic.walk(n, spec.offense, spec.defense, rule, True)
            for played, layers in enumerate(walk):
                for row in layers:
                    outside = np.r_[row[: n - played], row[n + played + 1 :]]
                    assert outside.tobytes() == bytes(outside.nbytes)

    def test_a_negative_zero_probability_gives_the_positive_zero_bits(self):
        # a -0.0 coefficient made -0.0 cells where the +0.0 spec has +0.0,
        # though the gains were equal
        spec = make_spec(0.45, -0.0, 0.55, -0.0, 1.0, -0.0)
        plain = make_spec(0.45, 0.0, 0.55, 0.0, 1.0, 0.0)
        for side in ("offense", "defense"):
            got = score_distribution(getattr(spec, side), 9)
            assert got.tobytes() == score_distribution(getattr(plain, side), 9).tobytes()
        for policy in ("Off", "Def", cat_policy(), cat_plus_policy(plain)):
            got = propagate_policy(spec, policy, 9).stages
            want = propagate_policy(plain, policy, 9).stages
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want]

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
        # a positive tail of 6.6e-20, far below any absolute tolerance: the
        # closed form must keep its relative accuracy where the tail decays.
        # abs=0, as approx would otherwise also pass anything within 1e-12
        decaying = make_distribution(0.4, 0.0, 0.6)
        tail = float(score_distribution(decaying, n)[n + 1 :].sum())
        assert fixed_style_positive_prob(decaying, n) == pytest.approx(tail, rel=1e-9, abs=0)

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

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_curve_blocks_equal_per_stage_sums_byte_for_byte(self, rows, monkeypatch):
        # blocks of exactly ``rows`` stages, filled at N = k * rows and with
        # one stage over at N = k * rows + 1
        for probs in ((0.45, 0.0, 0.55), (0.15, 0.7, 0.15), (0.1, 0.75, 0.15), (1.0, 0.0, 0.0)):
            style = make_distribution(*probs)
            for n in (rows, rows + 1, 4 * rows, 4 * rows + 1):
                monkeypatch.setattr(analytic, "_SIGN_BLOCK_BYTES", rows * 8 * (2 * n + 1))
                want = per_stage_gains(style, n)
                assert fixed_style_gain_curve(style, n).tobytes() == want.tobytes()

    def test_curve_blocks_of_the_default_size_equal_per_stage_sums(self):
        # 256 KB holds 16 stages of 2001 cells at N = 1000; N = 1001 leaves a
        # shorter last block
        assert analytic._SIGN_BLOCK_BYTES // (8 * 2001) == 16
        style = make_distribution(0.1, 0.75, 0.15)
        for n in (1000, 1001):
            assert fixed_style_gain_curve(style, n).tobytes() == per_stage_gains(style, n).tobytes()

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
    def test_past_the_budget_raises_before_any_work(self, fn, monkeypatch):
        style = make_distribution(0.2, 0.5, 0.3)
        for n in (10**9, analytic.DEFAULT_VALUE_HORIZON_BUDGET + 1):
            with pytest.raises(HorizonTooLarge):
                fn(style, n)
        # the budget is read at call time, so a lowered one holds at once
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 7)
        with pytest.raises(HorizonTooLarge):
            fn(style, 8)

    def test_a_raised_budget_reaches_the_inner_calls(self, monkeypatch):
        style = make_distribution(0.2, 0.5, 0.3)
        want = fixed_style_gain(style, 8)
        # a budget of 4 stages stands in for the default, 8 for a raised one
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 4)
        with pytest.raises(HorizonTooLarge):
            fixed_style_gain(style, 8)
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 8)
        assert fixed_style_gain(style, 8) == want


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

    def test_a_center_off_the_mass_is_refused(self):
        mass = np.array([0.2, 0.3, 0.5])
        for bad in (-1, 3, 7, 1.5, True, "1", None):
            with pytest.raises(InvalidState, match=r"center must be an integer in \[0, 3\)"):
                sign_expectation(mass, bad)

    def test_every_center_on_the_mass_is_read(self):
        mass = np.array([0.2, 0.3, 0.5])
        # center 0: no score lies below zero
        assert sign_expectation(mass, 0) == 0.3 + 0.5
        # integral non-int centers take the general guard to the same value
        for center in (1, np.int64(1), 1.0):
            assert sign_expectation(mass, center) == 0.5 - 0.2
        assert sign_expectation(mass, 2) == -(0.3 + 0.2)

    def test_a_mass_that_is_not_one_dimensional_is_refused(self):
        for bad in (np.array([[0.2, 0.3], [0.4, 0.1]]), np.zeros((3, 1)), np.array(1.0)):
            with pytest.raises(InvalidState, match="one-dimensional"):
                sign_expectation(bad, 1)
        # a list takes the general guard to the array's value
        mass = [0.2, 0.3, 0.5]
        assert sign_expectation(mass, 1) == sign_expectation(np.array(mass), 1)

    def test_a_mass_that_is_not_real_numbers_is_refused(self):
        objects = np.array([0.5, 0.5], dtype=object)
        for bad in (["a", "b"], np.array([b"x", b"y"]), objects, [0.5j, 0.5]):
            with pytest.raises(InvalidState, match="real numbers"):
                sign_expectation(bad, 0)
        # integer masses take the general guard and are read as numbers
        assert sign_expectation(np.array([0, 0, 1]), 1) == 1.0
        assert sign_expectation(np.array([0.25, 0.25, 0.5], dtype=np.float32), 1) == 0.25

    def test_a_mass_that_sums_to_no_finite_gain_is_refused(self):
        # a NaN is not passed through, and an infinity is not clamped to a sure result
        for bad in (
            [np.nan, 0.0, 0.5],
            [0.0, 0.0, np.inf],
            [np.inf, 0.0, 0.0],
            [np.inf, 0.0, np.inf],
        ):
            with pytest.raises(InvalidState, match="finite"):
                sign_expectation(np.array(bad), 1)


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

    # the solver's gains to N = 2000 against what each regime's theorem
    # implies at every horizon, plus one value that pins the curve

    def test_safe_defense_gains_rise_to_at_most_the_limit(self):
        spec = make_spec(0.45, 0.0, 0.55, 0.0, 1.0, 0.0)
        verdict = optimal_limit(spec)
        assert verdict.regime is Regime.SAFE_DEFENSE
        gains = gain_curve(spec, 2000).gains["optimal"]
        assert np.all(np.diff(gains) >= 0.0)
        assert np.all(gains <= verdict.optimal_limit)
        # the rise is still short of L = 7/11 by 6.0e-8 at N = 2000
        assert float(np.max(gains - verdict.optimal_limit)) == pytest.approx(-6.0e-8, rel=0.01)

    def test_fair_non_safe_gains_never_fall_below_the_limit(self):
        spec = SPEC_GRID[4]
        assert optimal_limit(spec).regime is Regime.FAIR_NON_SAFE
        gains = gain_curve(spec, 2000).gains["optimal"]
        assert np.all(gains >= 0.0)
        # the decay toward 0 shows: g_2000 = 0.0102 lies below g_1000 = 0.0143
        assert gains[1999] < gains[999]

    def test_both_strictly_losing_gains_approach_minus_one(self):
        assert optimal_limit(CHESS).regime is Regime.BOTH_STRICTLY_LOSING
        gains = gain_curve(CHESS, 2000).gains["optimal"]
        assert -1.0 <= gains[1999] < -0.9999

    def test_optimal_limit_refuses_fair_offense(self):
        with pytest.raises(RegimeNotCovered):
            optimal_limit(make_spec(0.3, 0.4, 0.3, 0.1, 0.8, 0.1))

    def test_optimal_limit_refuses_strong_player(self):
        with pytest.raises(RegimeNotCovered):
            optimal_limit(make_spec(0.5, 0.1, 0.4, 0.1, 0.8, 0.1))
