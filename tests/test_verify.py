"""Tests for the built-in verification checklist."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import matchplay.dp
import matchplay.policies
import matchplay.verify as verify
from matchplay import InvalidSampleCount, InvalidSeed, MatchSpec
from matchplay.verify import (
    CHESS,
    IDENTITY_OFFENSES,
    Check,
    LEAD_FLOOR_OFFENSES,
    SPEC_GRID,
    run_checks,
)

from conftest import assert_lines_match_golden

LINE_RE = re.compile(r"^[a-z0-9_]+=\S+ (PASS|FAIL)$")

GOLDEN = Path(__file__).parent / "golden" / "verify_seed0_draws20.txt"


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

    def test_lines_match_the_golden_file(self, checks):
        assert_lines_match_golden(checks, GOLDEN)

    def test_every_verdict_is_a_plain_bool(self, checks):
        # verify --out writes true or false only for a Python bool, not a numpy one
        off_grid = MatchSpec.from_probs(1 / 3, 1 / 3, 1 - 2 / 3, 0.1, 0.8, 0.1)
        users = [verify._check_user_spec(spec) for spec in (CHESS, off_grid)]
        for check in (*checks, *users):
            assert type(check.passed) is bool, check.name

    def test_two_game_anchor_line(self, checks):
        lines = {c.name: c.line() for c in checks}
        assert lines["g2_chess"] == "g2_chess=0.08 PASS"

    def test_every_check_reports_its_duration(self, checks):
        assert all(isinstance(c.seconds, float) and c.seconds >= 0.0 for c in checks)
        assert sum(c.seconds for c in checks) > 0.0

    def test_duration_stays_out_of_the_line_and_of_equality(self):
        quick, slow = Check("x", True, "1"), Check("x", True, "1", seconds=2.5)
        assert quick == slow
        assert quick.line() == slow.line() == "x=1 PASS"

    def test_seed_stable(self):
        a = [c.line() for c in run_checks(seed=1, draws=10)]
        b = [c.line() for c in run_checks(seed=1, draws=10)]
        assert a == b

    def test_bad_seed_rejected(self):
        for bad in (-1, True, 1.5, "1"):
            with pytest.raises(InvalidSeed):
                run_checks(seed=bad, draws=1)

    def test_bad_draws_rejected(self):
        # draws=0 used to report every randomized check as PASS without a draw
        for bad in (0, -1, 1.5, True, "1", None):
            with pytest.raises(InvalidSampleCount):
                run_checks(seed=0, draws=bad)


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

    def test_spec_off_the_decimal_grid_skips_the_oracle(self):
        # 1/3 is no short decimal, so the integer oracle raises InvalidOracleInput
        # and user_spec falls back to the floor gap and the mass drift
        spec = MatchSpec.from_probs(1 / 3, 1 / 3, 1 - 2 / 3, 0.1, 0.8, 0.1)
        check = run_checks(user_spec=spec, draws=1)[-1]
        assert check.name == "user_spec"
        assert check.line().startswith("user_spec=") and check.passed


class TestDrawsBeforeSolving:
    RANDOMIZED = (
        "_check_dominance_monotonicity",
        "_check_parity_inequality",
        "_check_heavy_defense_nonpositive",
        "_check_fair_defense_floor",
        "_check_safe_defense_monotone",
    )

    @pytest.mark.parametrize("name", RANDOMIZED)
    def test_every_draw_comes_before_the_first_solve(self, name, monkeypatch):
        events = []
        real_rng = np.random.default_rng(0)
        real_curve = matchplay.dp.gain_curve

        class LoggedRng:
            def uniform(self, low, high):
                events.append("draw")
                return real_rng.uniform(low, high)

        def logged_curve(*args, **kwargs):
            events.append("solve")
            return real_curve(*args, **kwargs)

        monkeypatch.setattr(matchplay.dp, "gain_curve", logged_curve)
        assert getattr(verify, name)(LoggedRng(), 4).passed
        first_solve = events.index("solve")
        assert "draw" in events[:first_solve]
        assert "draw" not in events[first_solve:]


class TestCorruption:
    def test_broken_oracle_is_caught_by_name(self, monkeypatch):
        real = matchplay.policies.brute_force_optimal

        def skewed(spec, n_games):
            return real(spec, n_games) + 1e-6

        monkeypatch.setattr(matchplay.policies, "brute_force_optimal", skewed)
        checks = run_checks(seed=0, draws=5)
        failed = {c.name for c in checks if not c.passed}
        assert "oracle_agreement" in failed
        # a failing verdict is a plain bool too, as verify --out needs
        assert all(type(c.passed) is bool for c in checks)

    def test_broken_oracle_fails_the_user_spec(self, monkeypatch):
        real = matchplay.policies.brute_force_optimal

        def skewed(spec, n_games):
            return real(spec, n_games) + 1e-6

        monkeypatch.setattr(matchplay.policies, "brute_force_optimal", skewed)
        checks = run_checks(user_spec=CHESS, seed=0, draws=1)
        failed = {c.name for c in checks if not c.passed}
        assert "user_spec" in failed
        assert all(type(c.passed) is bool for c in checks)

    def test_negative_mass_fails_with_its_drift_shown(self, monkeypatch):
        real = matchplay.policies.propagate_policy

        def leaky(spec, policy, n_games, **kwargs):
            dist = real(spec, policy, n_games, **kwargs)
            last = dist.stages[-1].copy()
            # a negative cell that leaves the stage's total mass at 1
            last[0, 0] -= 0.25
            last[0, -1] += 0.25
            dist.stages[-1] = last
            return dist

        monkeypatch.setattr(matchplay.policies, "propagate_policy", leaky)
        checks = {c.name: c for c in run_checks(user_spec=CHESS, seed=0, draws=1)}
        assert not checks["mass_conservation"].passed
        assert not checks["user_spec"].passed
        # the detail is still the drift, which stays tiny: only the sign check fails
        assert float(checks["mass_conservation"].detail) <= verify.EXACT_TOL

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
