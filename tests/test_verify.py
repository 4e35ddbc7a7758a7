"""Tests for the built-in verification checklist."""

from __future__ import annotations

import re

import pytest

import matchplay.policies
from matchplay import InvalidSeed, MatchSpec
from matchplay.verify import (
    IDENTITY_OFFENSES,
    LEAD_FLOOR_OFFENSES,
    SPEC_GRID,
    run_checks,
)

LINE_RE = re.compile(r"^[a-z0-9_]+=\S+ (PASS|FAIL)$")


@pytest.fixture(scope="module")
def checks():
    # small draw count keeps the randomized suites fast; the acceptance test
    # runs them at full size
    return run_checks(seed=0, draws=20)


class TestChecklist:
    def test_everything_passes(self, checks):
        failures = [c.name for c in checks if not c.passed]
        assert failures == []

    def test_names_unique(self, checks):
        names = [c.name for c in checks]
        assert len(names) == len(set(names))

    def test_line_format(self, checks):
        for check in checks:
            assert LINE_RE.match(check.line()), check.line()

    def test_two_game_anchor_line(self, checks):
        lines = {c.name: c.line() for c in checks}
        assert lines["g2_chess"] == "g2_chess=0.08 PASS"

    def test_seed_stable(self):
        a = [c.line() for c in run_checks(seed=1, draws=10)]
        b = [c.line() for c in run_checks(seed=1, draws=10)]
        assert a == b

    def test_bad_seed_rejected(self):
        for bad in (-1, True, 1.5, "1"):
            with pytest.raises(InvalidSeed):
                run_checks(seed=bad, draws=1)


class TestFixtureSets:
    def test_grid_is_large_enough(self):
        assert len(SPEC_GRID) >= 20
        assert all(isinstance(s, MatchSpec) for s in SPEC_GRID)

    def test_identity_offense_count(self):
        # the equality claim needs at least ten supporting offenses
        assert len(IDENTITY_OFFENSES) >= 10

    def test_identity_and_floor_sets_disagree_somewhere(self):
        # the floor set exists precisely because some offenses break equality
        assert any(probs not in IDENTITY_OFFENSES for probs in LEAD_FLOOR_OFFENSES)


class TestUserSpec:
    def test_appended_when_given(self, chess):
        checks = run_checks(user_spec=chess, seed=0, draws=5)
        assert checks[-1].name == "user_spec"
        assert checks[-1].passed

    def test_absent_by_default(self, checks):
        assert all(c.name != "user_spec" for c in checks)


class TestCorruption:
    def test_broken_oracle_is_caught_by_name(self, monkeypatch):
        real = matchplay.policies.brute_force_optimal

        def skewed(spec, n_games):
            return real(spec, n_games) + 1e-6

        monkeypatch.setattr(matchplay.policies, "brute_force_optimal", skewed)
        checks = run_checks(seed=0, draws=5)
        failed = {c.name for c in checks if not c.passed}
        assert "oracle_agreement" in failed

    def test_broken_convolution_is_caught_by_name(self, monkeypatch):
        import matchplay.analytic

        real = matchplay.analytic.fixed_style_gain_curve

        def skewed(style, n_max):
            return real(style, n_max) + 1e-9

        monkeypatch.setattr(matchplay.analytic, "fixed_style_gain_curve", skewed)
        checks = run_checks(seed=0, draws=5)
        failed = {c.name for c in checks if not c.passed}
        # the curve feeds the trinomial cross-check and the benchmark floor
        assert "trinomial_convolution" in failed
