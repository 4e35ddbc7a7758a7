"""Tests for the benchmark policies, their exact evaluation, and the oracle.

Exactness claims are asserted bitwise where the implementation guarantees
them (curve-vs-single evaluation, propagation-vs-evaluation); everything
else uses 1e-12 absolute tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from matchplay import (
    Action,
    CatPlusPolicy,
    CatPolicy,
    FixedPolicy,
    HorizonTooLarge,
    InvalidOracleInput,
    OracleHorizonTooLarge,
    RegimeNotCovered,
    as_policy,
    brute_force_optimal,
    cat_gain_curve,
    cat_plus_gain_curve,
    cat_plus_identity_check,
    cat_plus_policy,
    cat_policy,
    exact_policy_gain,
    fixed_policy,
    fixed_style_gain,
    gain_curve,
    make_distribution,
    propagate_policy,
    solve,
    table_policy,
)

from conftest import make_spec

EXACT_TOL = 1e-12

SAFE = (0.0, 1.0, 0.0)


def random_spec(rng):
    pd = rng.uniform(0.0, 0.5)
    pw = (1.0 - pd) * rng.uniform(0.0, 1.0)
    qd = rng.uniform(pd, 1.0)
    qw = (1.0 - qd) * rng.uniform(0.0, 1.0)
    return make_spec(pw, pd, 1.0 - pd - pw, qw, qd, 1.0 - qd - qw)


class TestPolicyRules:
    def test_fixed(self):
        assert fixed_policy("Off").decide(5, 0, False) is Action.OFF
        assert fixed_policy(Action.DEF).decide(1, 3, True) is Action.DEF

    def test_fixed_rejects_unknown_style(self):
        with pytest.raises(ValueError):
            fixed_policy("park-the-bus")

    def test_cat_follows_the_lead_flag(self):
        policy = cat_policy()
        assert policy.decide(7, -2, False) is Action.OFF
        assert policy.decide(7, 0, True) is Action.DEF
        assert policy.decide(1, -1, True) is Action.DEF

    def test_cat_plus_refines_only_the_level_last_game(self, chess):
        policy = cat_plus_policy(chess)
        # offense drift -0.10 < defense drift -0.05: stay defensive
        assert policy.final_offense is False
        assert policy.decide(1, 0, False) is Action.DEF
        assert policy.decide(2, 0, False) is Action.OFF
        assert policy.decide(1, -1, False) is Action.OFF

    def test_cat_plus_attacks_when_offense_drifts_better(self):
        # offense drift -0.10 beats defense drift -0.30
        spec = make_spec(0.35, 0.2, 0.45, 0.05, 0.6, 0.35)
        policy = cat_plus_policy(spec)
        assert policy.final_offense is True
        assert policy.decide(1, 0, False) is Action.OFF
        assert policy.decide(1, 0, True) is Action.OFF

    def test_cat_plus_tie_stays_defensive(self):
        # equal drifts: the refinement must not switch styles
        spec = make_spec(0.3, 0.2, 0.5, 0.1, 0.6, 0.3)
        assert cat_plus_policy(spec).final_offense is False

    def test_decide_row_matches_decide(self):
        rng = np.random.default_rng(5)
        spec = make_spec(0.3, 0.2, 0.5, 0.0, 1.0, 0.0)
        scores = np.arange(-6, 7)
        for policy in (cat_policy(), cat_plus_policy(spec), fixed_policy("Def")):
            for k in (1, 2, 5):
                for led in (False, True):
                    row = policy.decide_row(k, scores, led)
                    expect = [policy.decide(k, int(x), led) is Action.OFF for x in scores]
                    assert row.tolist() == expect
        table = solve(spec, 6).policy
        wrapped = table_policy(table)
        for k in range(1, 7):
            row = wrapped.decide_row(k, scores, False)
            expect = [
                abs(int(x)) <= 6 and wrapped.decide(k, int(x), False) is Action.OFF
                for x in scores
            ]
            assert row.tolist() == expect
        assert rng is not None

    def test_callable_protocol(self, chess):
        policy = cat_policy()
        assert policy(3, 0) is Action.OFF
        assert policy(3, 0, True) is Action.DEF


class TestAsPolicy:
    def test_passthrough(self):
        policy = cat_policy()
        assert as_policy(policy) is policy

    def test_strings_and_actions(self):
        assert isinstance(as_policy("off"), FixedPolicy)
        assert isinstance(as_policy(Action.DEF), FixedPolicy)

    def test_table(self, chess):
        assert as_policy(solve(chess, 3).policy).decide(2, 0, False) in (Action.OFF, Action.DEF)

    def test_table_rejects_scores_beyond_the_horizon(self, chess):
        with pytest.raises(ValueError):
            table_policy(solve(chess, 3).policy).decide(2, 9, False)

    def test_callable(self):
        policy = as_policy(lambda k, x, led: Action.OFF if x < 0 else Action.DEF)
        assert policy.decide(4, -1, False) is Action.OFF
        assert policy.decide(4, 1, False) is Action.DEF

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_policy(42)


class TestExactEvaluation:
    def test_fixed_styles_match_the_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            spec = random_spec(rng)
            n = int(rng.integers(1, 25))
            assert exact_policy_gain(spec, "off", n) == pytest.approx(
                fixed_style_gain(spec.offense, n), abs=EXACT_TOL
            )
            assert exact_policy_gain(spec, "def", n) == pytest.approx(
                fixed_style_gain(spec.defense, n), abs=EXACT_TOL
            )

    def test_two_game_example_benchmarks(self, chess):
        # frozen hand values: attacking twice loses 0.2025 - 0.3025; the
        # lead-protect rule reproduces the optimal 0.08 at two games
        assert exact_policy_gain(chess, "off", 2) == pytest.approx(-0.10, abs=EXACT_TOL)
        assert exact_policy_gain(chess, cat_policy(), 2) == pytest.approx(0.08, abs=EXACT_TOL)

    def test_lead_protect_curves_for_the_example(self, chess):
        # frozen from forward propagation by hand for horizons 1..4
        cat = cat_gain_curve(chess, 4)
        plus = cat_plus_gain_curve(chess, 4)
        assert np.allclose(cat, [-0.10, 0.08, 0.00125, 0.0630125], atol=EXACT_TOL, rtol=0.0)
        assert np.allclose(plus, [-0.05, 0.08, 0.013625, 0.0630125], atol=EXACT_TOL, rtol=0.0)

    def test_curves_bitwise_equal_per_horizon_evaluation(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            spec = random_spec(rng)
            n = int(rng.integers(1, 15))
            cat = cat_gain_curve(spec, n)
            plus = cat_plus_gain_curve(spec, n)
            for m in range(1, n + 1):
                assert cat[m - 1] == exact_policy_gain(spec, cat_policy(), m)
                assert plus[m - 1] == exact_policy_gain(spec, cat_plus_policy(spec), m)

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            spec = random_spec(rng)
            cat = cat_gain_curve(spec, 40)
            plus = cat_plus_gain_curve(spec, 40)
            assert np.all(plus >= cat - EXACT_TOL)

    def test_fair_defense_lead_protect_is_exactly_zero_floor(self):
        # a fair defense freezes the sign distribution symmetrically, so the
        # computed curve of any lead-protect run stays a true float >= 0
        spec = make_spec(0.4, 0.0, 0.6, 0.15, 0.7, 0.15)
        gains = gain_curve(spec, 300).gains["optimal"]
        assert float(np.min(gains)) >= 0.0

    def test_budget(self, chess):
        with pytest.raises(HorizonTooLarge):
            exact_policy_gain(chess, "off", 100_001)


class TestPropagation:
    def test_stage_count_and_mass(self, chess):
        law = propagate_policy(chess, cat_policy(), 30)
        assert len(law.stages) == 31
        assert law.max_mass_drift() <= EXACT_TOL

    def test_gain_matches_exact_evaluation_bitwise(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            spec = random_spec(rng)
            n = int(rng.integers(1, 20))
            policy = cat_plus_policy(spec)
            assert propagate_policy(spec, policy, n).gain == exact_policy_gain(spec, policy, n)

    def test_lead_probability_monotone(self, chess):
        law = propagate_policy(chess, cat_policy(), 25)
        probs = [law.lead_probability(t) for t in range(26)]
        assert probs[0] == 0.0
        assert all(b >= a - EXACT_TOL for a, b in zip(probs, probs[1:]))

    def test_score_distribution_slices(self, chess):
        law = propagate_policy(chess, cat_policy(), 10)
        start = law.score_distribution(0)
        assert start[law.center] == 1.0 and float(start.sum()) == 1.0
        final = law.score_distribution()
        assert final.shape == (21,)
        assert abs(float(final.sum()) - 1.0) <= EXACT_TOL

    def test_budget(self, chess):
        with pytest.raises(HorizonTooLarge):
            propagate_policy(chess, cat_policy(), 2_001)


class TestBruteForceOracle:
    def test_one_game_value_is_the_better_drift(self, chess):
        assert brute_force_optimal(chess, 1) == -0.05

    def test_two_game_example_is_exact(self, chess):
        assert brute_force_optimal(chess, 2) == 0.08

    def test_matches_the_solver_on_mixed_specs(self):
        specs = [
            make_spec(0.45, 0.0, 0.55, 0.10, 0.75, 0.15),
            make_spec(0.30, 0.0, 0.70, 0.00, 1.00, 0.00),
            make_spec(0.30, 0.2, 0.50, 0.00, 1.00, 0.00),
            make_spec(0.20, 0.3, 0.50, 0.10, 0.60, 0.30),
            make_spec(0.49, 0.02, 0.49, 0.05, 0.90, 0.05),
        ]
        for spec in specs:
            for n in range(1, 5):
                assert solve(spec, n).gain == pytest.approx(
                    brute_force_optimal(spec, n), abs=EXACT_TOL
                )

    def test_horizon_cap(self, chess):
        with pytest.raises(OracleHorizonTooLarge):
            brute_force_optimal(chess, 6)

    def test_rejects_long_decimals(self):
        third = 1.0 / 3.0
        spec = make_spec(third, third, 1.0 - 2.0 * third, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidOracleInput):
            brute_force_optimal(spec, 2)


class TestLeadProtectEnvelope:
    def test_identity_on_agreeing_offenses(self):
        for probs in ((0.45, 0.0, 0.55), (0.30, 0.0, 0.70), (0.40, 0.10, 0.50)):
            spec = make_spec(*probs, *SAFE)
            report = cat_plus_identity_check(spec, 100)
            assert report.max_discrepancy <= EXACT_TOL

    def test_envelope_never_exceeds_optimal(self):
        for probs in ((0.35, 0.0, 0.65), (0.30, 0.20, 0.50), (0.15, 0.60, 0.25)):
            spec = make_spec(*probs, *SAFE)
            report = cat_plus_identity_check(spec, 60)
            assert float(np.max(report.catplus_envelope - report.optimal)) <= EXACT_TOL

    def test_draw_banking_gap_is_real(self):
        # the optimal play can lock a draw after recovering from a deficit;
        # at 8 games this is worth 164237073/25600000000 over the envelope,
        # confirmed by exact rational recursion
        spec = make_spec(0.35, 0.0, 0.65, *SAFE)
        report = cat_plus_identity_check(spec, 8)
        assert report.worst_horizon == 8
        assert report.max_discrepancy == pytest.approx(0.0064155106640625, abs=1e-12)

    def test_draw_banking_gap_with_a_drawing_offense(self):
        spec = make_spec(0.30, 0.20, 0.50, *SAFE)
        report = cat_plus_identity_check(spec, 5)
        assert report.max_discrepancy == pytest.approx(0.0087, abs=1e-12)
        assert report.worst_horizon == 5

    def test_report_shape(self):
        spec = make_spec(0.45, 0.0, 0.55, *SAFE)
        report = cat_plus_identity_check(spec, 40)
        assert report.horizon == 40
        assert report.optimal.shape == (40,)
        assert report.catplus_envelope.shape == (40,)
        assert 1 <= report.worst_horizon <= 40

    def test_requires_sure_draw_defense(self, chess):
        with pytest.raises(RegimeNotCovered):
            cat_plus_identity_check(chess, 10)

    def test_requires_strictly_losing_offense(self):
        spec = make_spec(0.4, 0.2, 0.4, *SAFE)
        with pytest.raises(RegimeNotCovered):
            cat_plus_identity_check(spec, 10)


class TestPolicyClasses:
    def test_reprs(self, chess):
        assert "Off" in repr(FixedPolicy("off"))
        assert repr(CatPolicy()) == "CatPolicy()"
        assert "CatPlusPolicy" in repr(CatPlusPolicy(True))
        assert "horizon=3" in repr(table_policy(solve(chess, 3).policy))

    def test_lead_flag_usage(self, chess):
        assert cat_policy().uses_lead_flag is True
        assert fixed_policy("off").uses_lead_flag is False
        assert table_policy(solve(chess, 2).policy).uses_lead_flag is False
