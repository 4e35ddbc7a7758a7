"""Tests for the domain types: distributions, match specs, classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from matchplay import (
    Action,
    Classification,
    InvalidMatchSpec,
    InvalidProbability,
    MatchSpec,
    StyleDistribution,
    brute_force_optimal,
    cat_gain_curve,
    cat_limit,
    cat_plus_gain_curve,
    cat_plus_identity_check,
    cat_plus_policy,
    classify,
    dominates,
    estimate_gain,
    exact_policy_gain,
    find_optimal_horizon,
    fixed_style_draw_prob,
    fixed_style_gain,
    fixed_style_gain_curve,
    fixed_style_positive_prob,
    gain_curve,
    hitting_probability,
    lead_policy_curves,
    make_distribution,
    optimal_limit,
    propagate_policy,
    score_distribution,
    simulate_match,
    solve,
)
from matchplay.verify import run_checks

from conftest import make_spec


class TestStyleDistribution:
    def test_valid_triple(self):
        d = make_distribution(0.45, 0.0, 0.55)
        assert d.win == 0.45
        assert d.draw == 0.0
        assert d.loss == 0.55

    def test_values_coerced_to_float(self):
        d = make_distribution(0, 1, 0)
        assert isinstance(d.win, float) and isinstance(d.draw, float)

    def test_negative_zero_is_stored_as_positive_zero(self):
        # -0.0 passes the [0, 1] check; before, it was stored and shown as is
        for d in (make_distribution(-0.0, 1.0, -0.0), make_distribution(np.float64(-0.0), 1, 0)):
            assert all(math.copysign(1.0, v) == 1.0 for v in (d.win, d.draw, d.loss))
        spec = make_spec(0.45, -0.0, 0.55, -0.0, 1.0, -0.0)
        assert repr(spec) == repr(make_spec(0.45, 0.0, 0.55, 0.0, 1.0, 0.0))
        assert "-0.0" not in repr(spec)

    def test_drift(self):
        assert make_distribution(0.45, 0.0, 0.55).drift == pytest.approx(-0.10, abs=1e-15)
        assert make_distribution(0.10, 0.75, 0.15).drift == pytest.approx(-0.05, abs=1e-15)

    def test_mirror_swaps_tails(self):
        d = make_distribution(0.2, 0.3, 0.5).mirror()
        assert (d.win, d.draw, d.loss) == (0.5, 0.3, 0.2)

    def test_rejects_negative(self):
        with pytest.raises(InvalidProbability):
            make_distribution(-0.1, 0.6, 0.5)

    def test_rejects_above_one(self):
        with pytest.raises(InvalidProbability):
            make_distribution(1.1, 0.0, -0.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidProbability):
            make_distribution(0.4, 0.4, 0.4)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidProbability):
            make_distribution(math.nan, 0.5, 0.5)
        with pytest.raises(InvalidProbability):
            make_distribution(math.inf, 0.0, 0.0)

    def test_accepts_numpy_scalars(self):
        d = make_distribution(np.float32(0.5), 0.25, 0.25)
        assert (d.win, d.draw, d.loss) == (0.5, 0.25, 0.25)
        assert type(d.win) is float
        d = make_distribution(np.int64(1), np.int8(0), np.float64(0.0))
        assert (d.win, d.draw, d.loss) == (1.0, 0.0, 0.0)
        assert all(type(v) is float for v in (d.win, d.draw, d.loss))

    @pytest.mark.parametrize(
        "bad",
        [True, np.bool_(True), np.float32("nan"), np.float64("inf"), np.float32(1.5),
         np.int64(-1), "0.5", None],
        ids=["bool", "numpy_bool", "nan", "inf", "above_one", "negative", "str", "none"],
    )
    def test_rejects_bools_non_numbers_and_bad_numpy_scalars(self, bad):
        with pytest.raises(InvalidProbability):
            make_distribution(bad, 0.0, 0.0)

    def test_rejects_non_numbers(self):
        with pytest.raises(InvalidProbability):
            make_distribution("0.5", 0.25, 0.25)
        with pytest.raises(InvalidProbability):
            make_distribution(True, 0.0, 0.0)

    def test_sum_tolerance_is_tight(self):
        # a sub-1e-12 shortfall is rounding noise, anything larger is an error
        make_distribution(0.1, 0.2, 0.7 + 5e-13)
        with pytest.raises(InvalidProbability):
            make_distribution(0.1, 0.2, 0.7 + 5e-9)


class TestDominates:
    def test_better_both_tails(self):
        a = make_distribution(0.3, 0.5, 0.2)
        b = make_distribution(0.2, 0.5, 0.3)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_equal_distributions_dominate_each_other(self):
        d = make_distribution(0.2, 0.6, 0.2)
        assert dominates(d, d)

    def test_incomparable(self):
        a = make_distribution(0.4, 0.0, 0.6)
        b = make_distribution(0.1, 0.8, 0.1)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_stand_in_style_raises_a_library_error(self):
        # a tuple used to leak AttributeError: 'tuple' object has no attribute 'win'
        style = make_distribution(0.1, 0.8, 0.1)
        for a, b in (((0.1, 0.2, 0.7), style), (style, (0.1, 0.2, 0.7)), (style, None)):
            with pytest.raises(InvalidProbability, match="expected a StyleDistribution"):
                dominates(a, b)


class TestMatchSpec:
    def test_defensive_convention_enforced(self):
        # the defense must draw at least as often as the offense
        with pytest.raises(InvalidMatchSpec):
            MatchSpec.from_probs(0.1, 0.8, 0.1, 0.45, 0.0, 0.55)

    def test_equal_draw_rates_allowed(self):
        spec = MatchSpec.from_probs(0.4, 0.2, 0.4, 0.3, 0.2, 0.5)
        assert spec.offense.draw == spec.defense.draw

    def test_from_probs_matches_constructor(self, chess):
        direct = MatchSpec(make_distribution(0.45, 0.0, 0.55), make_distribution(0.10, 0.75, 0.15))
        assert direct == chess

    def test_stand_in_style_raises_a_library_error(self):
        # each of these used to leak AttributeError: ... has no attribute 'draw'
        style = make_distribution(0.1, 0.8, 0.1)
        for offense, defense in (((0.4, 0, 0.6), (0.1, 0.8, 0.1)), ("x", style), (style, None)):
            with pytest.raises(InvalidProbability, match="expected a StyleDistribution"):
                MatchSpec(offense, defense)

    def test_classification_cached(self, chess):
        assert classify(chess) is chess.classification
        assert isinstance(chess.classification, Classification)


class TestClassification:
    def test_chess_flags(self, chess):
        c = chess.classification
        assert c.weak and c.strictly_weak
        assert not c.safe_defense and not c.fair_defense
        assert not c.defense_dominates_offense

    def test_safe_defense(self):
        c = make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0).classification
        assert c.safe_defense and c.fair_defense and not c.fair_non_safe

    def test_fair_non_safe_defense(self):
        c = make_spec(0.4, 0.0, 0.6, 0.15, 0.7, 0.15).classification
        assert c.fair_defense and c.fair_non_safe and not c.safe_defense

    def test_weak_but_not_strictly(self):
        c = make_spec(0.4, 0.2, 0.4, 0.1, 0.8, 0.1).classification
        assert c.weak and not c.strictly_weak

    def test_not_weak(self):
        c = make_spec(0.6, 0.0, 0.4, 0.1, 0.8, 0.1).classification
        assert not c.weak and not c.strictly_weak

    def test_dominance_flags(self):
        c = make_spec(0.1, 0.0, 0.9, 0.2, 0.7, 0.1).classification
        assert c.defense_dominates_offense
        assert not c.offense_dominates_defense


def test_action_values():
    assert Action.OFF.value == "Off"
    assert Action.DEF.value == "Def"


# an entry point that takes a spec or a style, given the bare probabilities
SPEC_TUPLE = (0.45, 0.0, 0.55, 0.1, 0.75, 0.15)
STYLE_TUPLE = (0.45, 0.0, 0.55)
NON_INSTANCE_CALLS = {
    "solve": lambda: solve(SPEC_TUPLE, 3),
    "gain_curve": lambda: gain_curve(SPEC_TUPLE, 3),
    "find_optimal_horizon": lambda: find_optimal_horizon(SPEC_TUPLE, 3),
    "exact_policy_gain": lambda: exact_policy_gain(SPEC_TUPLE, "Off", 3),
    "propagate_policy": lambda: propagate_policy(SPEC_TUPLE, "Off", 3),
    "lead_policy_curves": lambda: lead_policy_curves(SPEC_TUPLE, 3),
    "cat_gain_curve": lambda: cat_gain_curve(SPEC_TUPLE, 3),
    "cat_plus_gain_curve": lambda: cat_plus_gain_curve(SPEC_TUPLE, 3),
    "cat_plus_policy": lambda: cat_plus_policy(SPEC_TUPLE),
    "cat_plus_identity_check": lambda: cat_plus_identity_check(SPEC_TUPLE, 3),
    "brute_force_optimal": lambda: brute_force_optimal(SPEC_TUPLE, 3),
    "estimate_gain": lambda: estimate_gain(SPEC_TUPLE, "Off", 3, 10),
    "simulate_match": lambda: simulate_match(SPEC_TUPLE, "Off", 3, 0),
    "run_checks": lambda: run_checks(user_spec=SPEC_TUPLE, draws=1),
    "classify": lambda: classify(SPEC_TUPLE),
    "cat_limit": lambda: cat_limit(SPEC_TUPLE),
    "optimal_limit": lambda: optimal_limit(SPEC_TUPLE),
    "fixed_style_positive_prob": lambda: fixed_style_positive_prob(STYLE_TUPLE, 3),
    "fixed_style_draw_prob": lambda: fixed_style_draw_prob(STYLE_TUPLE, 3),
    "fixed_style_gain": lambda: fixed_style_gain(STYLE_TUPLE, 3),
    "score_distribution": lambda: score_distribution(STYLE_TUPLE, 3),
    "fixed_style_gain_curve": lambda: fixed_style_gain_curve(STYLE_TUPLE, 3),
    "hitting_probability": lambda: hitting_probability(STYLE_TUPLE),
    "spec_as_style": lambda: fixed_style_gain(MatchSpec.from_probs(*SPEC_TUPLE), 3),
}


@pytest.mark.parametrize("name", sorted(NON_INSTANCE_CALLS))
def test_entry_points_refuse_stand_ins_with_a_library_error(name):
    style_taking = "style" in name or name in ("score_distribution", "hitting_probability")
    error = InvalidProbability if style_taking else InvalidMatchSpec
    kind = "StyleDistribution" if style_taking else "MatchSpec"
    with pytest.raises(error, match=f"expected a {kind}, got"):
        NON_INSTANCE_CALLS[name]()
