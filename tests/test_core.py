"""Tests for the domain types: distributions, match specs, classification."""

from __future__ import annotations

import math

import pytest

from matchplay import (
    Action,
    Classification,
    InvalidMatchSpec,
    InvalidProbability,
    MatchSpec,
    StyleDistribution,
    classify,
    dominates,
    make_distribution,
)

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
