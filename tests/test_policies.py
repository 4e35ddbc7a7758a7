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
    InvalidPolicy,
    InvalidState,
    MatchPlayError,
    OracleHorizonTooLarge,
    Policy,
    RegimeNotCovered,
    TablePolicy,
    as_policy,
    brute_force_optimal,
    cat_gain_curve,
    cat_plus_gain_curve,
    cat_plus_identity_check,
    cat_plus_policy,
    cat_policy,
    estimate_gain,
    exact_policy_gain,
    fixed_policy,
    fixed_style_gain,
    gain_curve,
    lead_policy_curves,
    make_distribution,
    propagate_policy,
    simulate_match,
    solve,
    table_policy,
)

from matchplay.analytic import _BLOCK_STAGES as BLOCK, stencil
from matchplay.policies import _level_finish
from matchplay.sim import _final_signs
from matchplay.verify import SPEC_GRID

from conftest import make_spec, reference_final_signs, reference_stages, reference_step

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
                    # a row played in one style may come back as one bool
                    row = np.broadcast_to(policy.decide_row(k, scores, led), scores.shape)
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

    def test_decide_refuses_a_bad_state(self, chess):
        # before, the built-in rules read any score and stage and took any
        # truthy flag as a lead; a callable is not called with a bad state
        calls = []
        recorded = as_policy(lambda k, x, led: calls.append((k, x, led)) or "Off")
        table = table_policy(solve(chess, 4).policy)
        policies = (cat_policy(), cat_plus_policy(chess), fixed_policy("Off"), table, recorded)
        bad_states = (
            (3, "a", False),
            (3, 0.5, False),
            (3, None, False),
            (0, 1, False),
            (-5, 1, False),
            (2.5, 1, False),
            (True, 1, False),
            (3, True, False),
            (3, 1, "maybe"),
            (3, 1, 1),
            (3, 1, None),
        )
        for policy in policies:
            for state in bad_states:
                for call in (policy.decide, policy):
                    with pytest.raises(InvalidState):
                        call(*state)
        assert calls == []
        # numpy integers and bools, and integral floats, are read as their values
        for policy in policies:
            got = policy.decide(np.int64(3), np.int32(-1), np.bool_(False))
            assert got is policy.decide(3, -1, False) is policy(3.0, -1.0)
        assert all(type(v) in (int, bool) for call in calls for v in call)


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

    def test_callable_rows_are_checked_as_a_table_checks_them(self, chess):
        # a float row is refused, not truncated to 0; a string row raises no
        # raw ValueError; a 2-D row gives no 2-D mask
        calls = []
        policy = as_policy(lambda k, x, led: calls.append((k, x, led)) or ("Off" if x < 0 else "Def"))
        table = solve(chess, 4).policy
        for bad in (np.array([0.5, -0.5]), np.array(["a"]), np.zeros((2, 2), int)):
            for call in (policy.decide_row, lambda k, row, led: table.offense_mask(k, row)):
                with pytest.raises(InvalidState, match="1-D integer array"):
                    call(3, bad, False)
        with pytest.raises(InvalidState):
            policy.decide_row(0, np.array([0]), False)
        assert calls == []
        row = np.array([-1, 2, -1, 0], dtype=np.int8)
        assert policy.decide_row(3, row, np.True_).tolist() == [True, False, True, False]
        # one call per distinct score, with plain Python values
        assert calls == [(3, -1, True), (3, 0, True), (3, 2, True)]
        assert all(type(v) in (int, bool) for call in calls for v in call)

    def test_rejects_other_types(self, chess):
        for bad in (42, None, 3.5):
            for call in (
                lambda: as_policy(bad),
                lambda: exact_policy_gain(chess, bad, 3),
                lambda: estimate_gain(chess, bad, 3, 10),
                lambda: simulate_match(chess, bad, 3, 0),
                lambda: propagate_policy(chess, bad, 3),
            ):
                with pytest.raises(InvalidPolicy, match="cannot interpret"):
                    call()

    def test_non_actions_raise_a_library_error(self, chess):
        for bad in (
            lambda: fixed_policy("park-the-bus"),
            lambda: estimate_gain(chess, "nope", 3, 10),
            lambda: exact_policy_gain(chess, lambda k, x, led: 3, 3),
        ):
            with pytest.raises(InvalidPolicy) as info:
                bad()
            assert isinstance(info.value, MatchPlayError)

    def test_a_policy_that_cannot_decide_is_refused(self, chess):
        # a bare Policy overrides no decide_row; a callable that cannot take
        # (games_remaining, score, has_led) is refused before any call
        for bad in (Policy(), lambda k, x: "Off", lambda k, x, led, extra: "Off", len):
            for call in (
                lambda: exact_policy_gain(chess, bad, 3),
                lambda: estimate_gain(chess, bad, 3, 10),
                lambda: simulate_match(chess, bad, 3, 0),
                lambda: propagate_policy(chess, bad, 3),
            ):
                with pytest.raises(InvalidPolicy):
                    call()
        with pytest.raises(InvalidPolicy, match="does not override decide_row"):
            Policy().decide(3, 0, False)
        # defaults and variadic parameters can take the three arguments
        assert as_policy(lambda k, x, led=False, extra=0: "Off").decide(3, 0, False) is Action.OFF
        assert as_policy(lambda *args: "Def").decide(3, 0, False) is Action.DEF


class _MaskPolicy(Policy):
    """A custom policy whose offense mask is ``make(scores)``."""

    def __init__(self, make, uses_lead_flag):
        self.make, self.uses_lead_flag = make, uses_lead_flag

    def decide_row(self, games_remaining, scores, has_led):
        return self.make(np.asarray(scores))

    def __repr__(self):
        return "_MaskPolicy()"


class TestCustomMasks:
    BAD_MASKS = {
        "two_cells_too_long": lambda scores: np.ones(len(scores) + 2, dtype=bool),
        "one_cell_short": lambda scores: np.ones(len(scores) - 1, dtype=bool),
        "two_dimensional": lambda scores: np.ones((1, len(scores)), dtype=bool),
        "float": lambda scores: np.full(scores.shape, 0.4),
        "object": lambda scores: np.full(scores.shape, Action.OFF, dtype=object),
    }

    @pytest.mark.parametrize("flag", [False, True], ids=["flag_blind", "flagged"])
    @pytest.mark.parametrize("mask", sorted(BAD_MASKS))
    def test_a_bad_mask_is_refused_where_it_is_read(self, chess, mask, flag):
        policy = _MaskPolicy(self.BAD_MASKS[mask], flag)
        for call in (
            lambda: exact_policy_gain(chess, policy, 4),
            lambda: propagate_policy(chess, policy, 4),
            lambda: estimate_gain(chess, policy, 4, 50),
        ):
            with pytest.raises(InvalidPolicy, match="offense mask of shape"):
                call()

    def test_integer_masks_read_nonzero_as_offense(self, chess):
        # the Monte Carlo side is pinned by the scalar replay of an int8 mask
        as_bool = _MaskPolicy(lambda scores: scores <= 0, False)
        for dtype in (np.int8, np.uint8, np.int64):
            as_int = _MaskPolicy(lambda scores: (scores <= 0).astype(dtype) * 3, False)
            assert exact_policy_gain(chess, as_int, 6) == exact_policy_gain(chess, as_bool, 6)


class _LeadRule(Policy):
    """The protect-the-lead rule with a ``uses_lead_flag`` of any value."""

    def __init__(self, uses_lead_flag):
        self.uses_lead_flag = uses_lead_flag

    def decide_row(self, games_remaining, scores, has_led):
        return not has_led


class _WritingPolicy(Policy):
    """Offense from a level score or better, and then one added to every score read."""

    def __init__(self, uses_lead_flag):
        self.uses_lead_flag = uses_lead_flag

    def decide_row(self, games_remaining, scores, has_led):
        offense = scores >= 0
        scores += 1
        return offense


class TestPolicyContract:
    @pytest.mark.parametrize("flag", [2, "yes", None, 1.0], ids=repr)
    def test_a_lead_flag_that_is_not_a_bool_is_refused(self, chess, flag):
        # a flag of 2 laid out three walk layers, "yes" and None raised a
        # TypeError from the walk, and Monte Carlo read None as flag-blind
        policy = _LeadRule(flag)
        for call in (
            lambda: exact_policy_gain(chess, policy, 6),
            lambda: propagate_policy(chess, policy, 6),
            lambda: estimate_gain(chess, policy, 6, 4000),
        ):
            with pytest.raises(InvalidPolicy, match="uses_lead_flag must be a bool"):
                call()

    @pytest.mark.parametrize("flag", [False, True], ids=["flag_blind", "flagged"])
    def test_a_numpy_bool_lead_flag_reads_as_the_bool(self, chess, flag):
        as_bool, as_numpy = _LeadRule(flag), _LeadRule(np.bool_(flag))
        assert exact_policy_gain(chess, as_numpy, 6) == exact_policy_gain(chess, as_bool, 6)
        assert estimate_gain(chess, as_numpy, 6, 500) == estimate_gain(chess, as_bool, 6, 500)

    @pytest.mark.parametrize("flag", [False, True], ids=["flag_blind", "flagged"])
    def test_a_policy_cannot_write_the_scores_it_reads(self, chess, flag):
        # writing the walk's shared row or the live Monte Carlo scores gave
        # wrong gains; the write now raises inside the policy
        policy = _WritingPolicy(flag)
        for call in (
            lambda: exact_policy_gain(chess, policy, 3),
            lambda: propagate_policy(chess, policy, 3),
            lambda: estimate_gain(chess, policy, 3, 4000),
            lambda: policy.decide(3, 0, False),
        ):
            with pytest.raises(ValueError, match="read-only"):
                call()


class _ChaseRows(Policy):
    """Offense before the first lead for all but the last two games, then other rules.

    Two games out the row is ``has_led``; in the last game a led path
    attacks and a never-led one attacks only from behind. Each row is one
    bool where it can be, or with ``as_array`` always a mask of the scores'
    shape, so the two must evaluate alike. Flag-blind, it reads ``has_led``
    as False.
    """

    def __init__(self, as_array: bool, uses_lead_flag: bool):
        self.as_array, self.uses_lead_flag = as_array, uses_lead_flag

    def decide_row(self, games_remaining, scores, has_led):
        has_led = has_led and self.uses_lead_flag
        if games_remaining > 2:
            row = not has_led
        elif games_remaining == 2:
            row = has_led
        else:
            row = True if has_led else scores < 0
        return np.full(scores.shape, row) if self.as_array else row

    def __repr__(self):
        return f"_ChaseRows(as_array={self.as_array}, uses_lead_flag={self.uses_lead_flag})"


class TestBoolRows:
    @pytest.mark.parametrize("flag", [False, True], ids=["flag_blind", "flagged"])
    def test_a_bool_row_evaluates_as_the_same_mask(self, chess, grind, flag):
        as_bool, as_array = _ChaseRows(False, flag), _ChaseRows(True, flag)
        scores = np.arange(-4, 5)
        for k in (1, 2, 3):
            for led in (False, True):
                for x in scores.tolist():
                    assert as_bool.decide(k, x, led) is as_array.decide(k, x, led)
        for spec in (chess, grind):
            for n in (1, 2, 3, 9):
                got, want = exact_policy_gain(spec, as_bool, n), exact_policy_gain(spec, as_array, n)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                got = propagate_policy(spec, as_bool, n).stages
                want = propagate_policy(spec, as_array, n).stages
                assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
                signs = reference_final_signs(spec, as_array, n, 300, 7, 5)
                assert _final_signs(spec, as_bool, n, 300, 7, 5).tobytes() == signs.tobytes()
                estimate = estimate_gain(spec, as_bool, n, 300, 7)
                assert estimate == estimate_gain(spec, as_array, n, 300, 7)
                head = reference_final_signs(spec, as_array, n, 300, 7)
                assert estimate.mean == ((head > 0).sum() - (head < 0).sum()) / 300

    def test_built_in_rules_return_bools_where_the_row_is_constant(self, chess):
        scores = np.arange(-3, 4)
        assert fixed_policy("Off").decide_row(4, scores, False) is True
        assert fixed_policy("Def").decide_row(1, scores, True) is False
        for k in (1, 2, 5):
            assert cat_policy().decide_row(k, scores, True) is False
        attack, defend = CatPlusPolicy(True), CatPlusPolicy(False)
        assert attack.decide_row(2, scores, False) is True
        # the last game: constant unless final_offense equals has_led
        assert attack.decide_row(1, scores, False) is True
        assert defend.decide_row(1, scores, True) is False
        assert attack.decide_row(1, scores, True).tolist() == (scores == 0).tolist()
        assert defend.decide_row(1, scores, False).tolist() == (scores != 0).tolist()


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

    @pytest.mark.parametrize("index", [0, 4, 6, 13])
    def test_long_curves_bitwise_equal_per_horizon_evaluation(self, index):
        # horizons on both sides of numpy's 8-way unrolled sum and its
        # 128-element pairwise block, where the sums' grouping changes
        spec = SPEC_GRID[index]
        cat, plus = lead_policy_curves(spec, 300)
        refined = cat_plus_policy(spec)
        for m in (1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 255, 256, 257, 300):
            want = exact_policy_gain(spec, cat_policy(), m), exact_policy_gain(spec, refined, m)
            assert cat[m - 1].tobytes() == np.float64(want[0]).tobytes(), m
            assert plus[m - 1].tobytes() == np.float64(want[1]).tobytes(), m

    def test_level_finish_is_the_stencil_on_the_cells_near_zero(self):
        # the refined rule's three cells are the reference stencil's, with
        # score 0 playing the final style, summed over the two layers; a
        # rounding slip there rarely reaches a gain's bits, so they are
        # pinned here directly
        rng = np.random.default_rng(41)
        for _ in range(200):
            spec = random_spec(rng)
            final = spec.offense if rng.integers(2) else spec.defense
            styles = (spec.offense, spec.defense, final)
            layers = rng.uniform(size=(2, 5)) * (rng.uniform(size=(2, 5)) < 0.9)
            got = _level_finish(*layers.tolist(), *[(s.win, s.draw, s.loss) for s in styles])
            want = kernel = 0.0
            for layer, style in zip(layers, styles):
                # the source cells at scores -2..2; score 0 plays the final style
                cells = (style, style, final, style, style)
                w, d, l = np.array([(c.win, c.draw, c.loss) for c in cells]).T
                want = want + reference_step(np.r_[0.0, layer, 0.0], 2, w, d, l)[2:5]
                # the kernel gathers scores -1..1 from the wins at -2..0, the
                # draws at -1..1 and the losses at 0..2, as the walk reads them
                out, tmp = np.empty((2, 3))
                stencil(layer[:3], layer[1:4], layer[2:], w[:3], d[1:4], l[2:], out, tmp)
                kernel = kernel + out
            assert np.array(got).tobytes() == want.tobytes()
            assert np.array(got).tobytes() == kernel.tobytes()

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

    def test_sure_loss_gains_stay_at_minus_one(self):
        # neither style ever wins, so past 16 games the draw chance is below
        # an ulp and every route must land on -1.0, never an ulp below it
        spec = make_spec(0.0, 0.109375, 0.890625, 0.0, 0.109375, 0.890625)
        for policy in ("Off", "Def", cat_policy(), cat_plus_policy(spec)):
            assert exact_policy_gain(spec, policy, 17) == -1.0
            assert propagate_policy(spec, policy, 17).gain == -1.0
        curve = gain_curve(spec, 60, ("optimal", "cat", "catplus", "off", "def"))
        for label, gains in curve.gains.items():
            assert np.all(gains >= -1.0), label
            assert np.all(gains[16:] == -1.0), label

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

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_stages_match_the_allocating_reference_across_view_blocks(self, n):
        # the walk steps every stage through views made once per block of
        # stages; the refined rule's last stage and every stage of a table
        # policy read per-cell coefficients through them
        for spec in (SPEC_GRID[0], SPEC_GRID[4]):
            policies = (cat_policy(), cat_plus_policy(spec), table_policy(solve(spec, n).policy))
            for policy in policies:
                got = propagate_policy(spec, policy, n).stages
                want = reference_stages(spec, policy, n)
                assert [s.tobytes() for s in got] == [s.tobytes() for s in want]

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

    def test_stage_outside_the_match_rejected(self, chess):
        law = propagate_policy(chess, cat_policy(), 4)
        for read, stage in (
            (law.score_distribution, -1),
            (law.score_distribution, 2.5),
            (law.lead_probability, -2),
            (law.score_distribution, 9),
        ):
            with pytest.raises(InvalidState):
                read(stage)

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

    def test_cat_plus_policy_needs_a_bool(self, chess):
        # "False" used to build a policy that attacks on a level last game, and
        # an array leaked numpy's ambiguous-truth-value ValueError
        for flag in ("False", np.array([1, 0]), 1, 0.0, None):
            with pytest.raises(InvalidPolicy, match="must be a bool"):
                CatPlusPolicy(flag)
        assert CatPlusPolicy(np.True_).final_offense is True
        assert CatPlusPolicy(np.bool_(False)).final_offense is False
        # the spec route still picks the drift-better style (Def for CHESS)
        assert cat_plus_policy(chess).final_offense is False

    def test_table_policy_needs_a_policy_table(self, chess):
        for table in (5, "x", None, solve(chess, 2).values):
            with pytest.raises(InvalidPolicy, match="PolicyTable"):
                table_policy(table)
            with pytest.raises(InvalidPolicy, match="PolicyTable"):
                TablePolicy(table)

    def test_lead_flag_usage(self, chess):
        assert cat_policy().uses_lead_flag is True
        assert fixed_policy("off").uses_lead_flag is False
        assert table_policy(solve(chess, 2).policy).uses_lead_flag is False
