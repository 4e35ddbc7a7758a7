"""Tests for the backward-induction solver and its tables.

The two-game running example is checked against hand arithmetic; larger
horizons lean on cross-route identities (the banded sweep vs a full-triangle
reference, an exact integer recursion, curve vs single solve, solver vs
forward evaluation of its own policy).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from matchplay import (
    Action,
    GainCurve,
    HorizonTooLarge,
    InvalidHorizon,
    InvalidPolicy,
    InvalidState,
    MatchPlayError,
    brute_force_optimal,
    cat_gain_curve,
    cat_plus_gain_curve,
    cat_plus_identity_check,
    cat_policy,
    estimate_gain,
    exact_policy_gain,
    find_optimal_horizon,
    fixed_style_draw_prob,
    fixed_style_gain,
    fixed_style_gain_curve,
    fixed_style_positive_prob,
    gain_curve,
    lead_policy_curves,
    optimal_limit,
    propagate_policy,
    score_distribution,
    simulate_match,
    solve,
    table_policy,
)
from matchplay import analytic, dp, policies
from matchplay.dp import POLICY_LABELS, _bellman_sweep
from matchplay.verify import SPEC_GRID

from conftest import (
    CHESS_PROBS,
    GRIND_PROBS,
    band_reference,
    exact_bellman_gains,
    expanded_rows,
    make_spec,
    reference_sweep,
)

EXACT_TOL = 1e-12

# a sure-draw defense and a strictly losing offense, the regime that
# cat_plus_identity_check needs
SURE_DRAW_PROBS = (0.45, 0.0, 0.55, 0.0, 1.0, 0.0)

_VALUE = (analytic, "DEFAULT_VALUE_HORIZON_BUDGET")
_TABLE = (dp, "DEFAULT_TABLE_HORIZON_BUDGET")
_PROPAGATE = (policies, "DEFAULT_PROPAGATE_HORIZON_BUDGET")

# every public function with a horizon budget: the constant it reads, and a
# call of it at horizon n
_BUDGETED = {
    "fixed_style_positive_prob": (
        _VALUE,
        lambda spec, n: fixed_style_positive_prob(spec.offense, n),
    ),
    "fixed_style_draw_prob": (_VALUE, lambda spec, n: fixed_style_draw_prob(spec.offense, n)),
    "fixed_style_gain": (_VALUE, lambda spec, n: fixed_style_gain(spec.offense, n)),
    "score_distribution": (_VALUE, lambda spec, n: score_distribution(spec.offense, n)),
    "fixed_style_gain_curve": (_VALUE, lambda spec, n: fixed_style_gain_curve(spec.offense, n)),
    "solve": (_TABLE, solve),
    "gain_curve": (_VALUE, lambda spec, n: gain_curve(spec, n, POLICY_LABELS)),
    "find_optimal_horizon": (_VALUE, find_optimal_horizon),
    "exact_policy_gain": (_VALUE, lambda spec, n: exact_policy_gain(spec, cat_policy(), n)),
    "propagate_policy": (_PROPAGATE, lambda spec, n: propagate_policy(spec, cat_policy(), n)),
    "lead_policy_curves": (_VALUE, lead_policy_curves),
    "cat_gain_curve": (_VALUE, cat_gain_curve),
    "cat_plus_gain_curve": (_VALUE, cat_plus_gain_curve),
    "cat_plus_identity_check": (_VALUE, cat_plus_identity_check),
    "estimate_gain": (_VALUE, lambda spec, n: estimate_gain(spec, cat_policy(), n, 10, 1)),
    "simulate_match": (_VALUE, lambda spec, n: simulate_match(spec, cat_policy(), n, 1)),
}


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
            for stage, score in ((5, 0), (2, 9), (2, -9), (2.5, 0), (2, 0.5)):
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

    def test_offense_mask_needs_a_row_of_integer_scores(self, chess):
        policy = solve(chess, 4).policy
        for bad in (np.zeros((2, 2), int), np.array(1), np.zeros((1, 3), int), np.array([0.0])):
            with pytest.raises(InvalidState, match="1-D integer array"):
                policy.offense_mask(2, bad)
        assert policy.offense_mask(2, [0, 1]).tolist() == [
            policy.action(2, x) is Action.OFF for x in (0, 1)
        ]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint64])
    def test_offense_mask_agrees_with_action_for_every_integer_dtype(self, dtype):
        # the range check and the lookup must not run in the scores' dtype:
        # np.abs keeps int8 -128 negative, and int8 scores + band wrap
        info = np.iinfo(dtype)
        for spec, n, stages in ((SPEC_GRID[1], 9, (1, 5, 9)), (SPEC_GRID[4], 300, (1, 100, 150))):
            policy = solve(spec, n).policy
            scores = np.arange(max(int(info.min), -n), min(int(info.max), n) + 1).astype(dtype)
            beyond = [x for x in (int(info.min), int(info.max), 2**63) if n < abs(x) <= info.max]
            for k in stages:
                want = [policy.action(k, int(x)) is Action.OFF for x in scores]
                assert policy.offense_mask(k, scores).tolist() == want
                for x in beyond:
                    with pytest.raises(InvalidState):
                        policy.action(k, x)
                    with pytest.raises(InvalidState):
                        policy.offense_mask(k, np.array([x], dtype=dtype))

    def test_values_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec = random_spec(rng)
            gains = gain_curve(spec, 50).gains["optimal"]
            assert np.all(gains <= 1.0) and np.all(gains >= -1.0)


class TestPruning:
    def test_same_bits_with_and_without(self):
        # solve evaluates the undecided band; the reference the full triangle
        rng = np.random.default_rng(17)
        for _ in range(12):
            spec = random_spec(rng)
            n = int(rng.integers(1, 41))
            pruned = solve(spec, n)
            gains, value_rows, policy_rows, _ = reference_sweep(spec, n, prune=False)
            assert pruned.gain == gains[n]
            got_values, got_policy = expanded_rows(pruned)
            for got, want in zip(got_values, value_rows, strict=True):
                assert np.array_equal(got, want)
            for got, want in zip(got_policy, policy_rows, strict=True):
                assert np.array_equal(got, want)

    def test_curve_same_bits(self, chess):
        a = gain_curve(chess, 64).gains["optimal"]
        b = reference_sweep(chess, 64, prune=False)[0][1:]
        assert np.array_equal(a, b)

    def test_evaluation_counts_at_64(self, chess):
        # diamond band: sum of 2*min(k, 64-k)+1 = 2112 cells; the full
        # reachable triangle is 64^2 = 4096, so pruning removes 48.4%
        assert solve(chess, 64).values.evaluations == 2112
        assert reference_sweep(chess, 64, prune=False)[3] == 4096


# each side of the sweep's clamp runs only when a style sum (win + loss) + draw
# exceeds 1: (probs, offense sum above 1, defense sum above 1) per case. The
# sweep also skips cells frozen at exactly -1 (when min(s_off, s_def) >= 1) or
# +1 (when max(s_off, s_def) >= 1), whose policy bit is s_off < s_def on the
# -1 side and s_off > s_def on the +1 side; few cells freeze by N = 64, so
# the longer horizons check the skipped cells
CLAMP_CASES = {
    "no_sum_above_1": (CHESS_PROBS, False, False),
    # s_off = 1.0000000000004, s_def = 1.0: the ceiling binds at N = 60
    "offense_sum_above_1": ((0.45, 4e-13, 0.55, 0.10, 0.75, 0.15), True, False),
    # both clamps bind at N = 60
    "both_sums_above_1": ((0.05, 4e-13, 0.95, 0.01, 0.9400000000004, 0.05), True, True),
    # s_off rounds below 1: the defense's stencil drops past -1 at N = 60,
    # but the offense's keeps their maximum above it
    "offense_sum_below_1": ((0.05, 0.0, 0.9499999999996, 0.01, 0.9400000000004, 0.05), False, True),
    "sure_draw_defense": ((0.45, 0.0, 0.55, 0.0, 1.0, 0.0), False, False),
    # values decay polynomially and never round to -1 or +1
    "fair_non_safe": ((0.40, 0.0, 0.60, 0.15, 0.70, 0.15), False, False),
    # a sure-loss defense: the whole band freezes at -1
    "whole_band_freezes": ((0.3, 0.0, 0.7, 0.0, 0.0, 1.0), False, False),
    # s_off = 1.0 < s_def: a cell frozen at -1 attacks
    "low_bit": ((0.05, 0.0, 0.95, 0.01, 0.9400000000004, 0.05), False, True),
    # s_off > s_def = 1.0: a cell frozen at +1 attacks
    "high_bit": ((0.9500000000004, 0.0, 0.05, 0.05, 0.94, 0.01), True, False),
}


def case_spec(name):
    return make_spec(*CLAMP_CASES[name][0])


def style_sums(spec):
    return [(style.win + style.loss) + style.draw for style in (spec.offense, spec.defense)]


class TestClampCases:
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 150, 400])
    @pytest.mark.parametrize("case", CLAMP_CASES.values(), ids=list(CLAMP_CASES))
    def test_sweep_keeps_the_reference_bits(self, case, n):
        probs, offense_above, defense_above = case
        spec = make_spec(*probs)
        assert [s > 1.0 for s in style_sums(spec)] == [offense_above, defense_above]
        gains, value_rows, policy_rows, evaluations = reference_sweep(spec, n, prune=True)
        # the numpy reference that the long-horizon property trusts
        band_gains, band_values, band_policy, band_cells = band_reference(spec, n)
        assert band_gains.tobytes() == np.array(gains).tobytes() and band_cells == evaluations
        for got, want in zip(band_values, value_rows, strict=True):
            assert got.tobytes() == np.array(want).tobytes()
        for got, want in zip(band_policy, policy_rows, strict=True):
            assert got.tobytes() == np.array(want, dtype=np.uint8).tobytes()
        tables = _bellman_sweep(spec, n, tables=True)
        for sweep in (_bellman_sweep(spec, n), tables):
            assert sweep.gains.tobytes() == np.array(gains).tobytes()
            assert sweep.evaluations == evaluations
            assert sweep.computed <= evaluations
        got_values, got_policy = expanded_rows(tables)
        for got, want in zip(got_values, value_rows, strict=True):
            assert got.tobytes() == np.array(want).tobytes()
            assert np.all(np.abs(got) <= 1.0)
        for got, want in zip(got_policy, policy_rows, strict=True):
            assert got.tobytes() == np.array(want, dtype=np.uint8).tobytes()

    def test_the_bit_specs_have_the_sums_they_name(self):
        assert style_sums(case_spec("low_bit")) == [1.0, 1.0000000000004]
        assert style_sums(case_spec("high_bit")) == [1.0000000000004, 1.0]


class TestFrontier:
    @pytest.mark.parametrize("n, share", [(400, 0.70), (2000, 0.35)])
    def test_chess_skips_its_frozen_cells(self, chess, n, share):
        sweep = _bellman_sweep(chess, n)
        assert sweep.computed <= share * sweep.evaluations

    def test_a_spec_that_never_rounds_to_one_computes_the_whole_band(self):
        # fair non-safe values decay polynomially and never reach -1 or +1
        sweep = _bellman_sweep(case_spec("fair_non_safe"), 2000)
        assert sweep.computed == sweep.evaluations

    def test_an_offense_sum_below_1_never_reaches_the_low_side(self):
        # pl 4e-13 below low_bit's: s_off < 1, so no band cell reads -1 and the
        # low frontier follows the band's edge; at s_off = 1 the cells freeze
        below = _bellman_sweep(case_spec("offense_sum_below_1"), 400, tables=True)
        at_1 = _bellman_sweep(case_spec("low_bit"), 400, tables=True)
        assert min(row.min() for row in expanded_rows(below)[0]) > -1.0
        assert min(row.min() for row in expanded_rows(at_1)[0]) == -1.0

    def test_tables_narrow_past_the_frozen_cells(self):
        sweep = _bellman_sweep(case_spec("low_bit"), 400, tables=True)
        assert sweep.computed < 0.5 * sweep.evaluations
        assert sum(len(row) for row in sweep.values.rows[1:]) == sweep.computed
        assert sum(len(row) for row in sweep.policy.rows) == sweep.computed


class TestLookupsOutsideTheWindow:
    """Lookups on window rows read the frozen sides as the full band did."""

    # (probs, the side whose cells freeze, that side's policy bit)
    CASES = {
        "chess": (CHESS_PROBS, "low", False),
        "low_bit": (CLAMP_CASES["low_bit"][0], "low", True),
        "high_bit": (CLAMP_CASES["high_bit"][0], "high", True),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
    def test_every_lookup_matches_the_expanded_rows(self, case):
        probs, side, bit = case
        n = 2000
        result = solve(make_spec(*probs), n)
        values, policy = result.values, result.policy
        assert (policy.high_bit if side == "high" else policy.low_bit) is bit
        value_rows, policy_rows = expanded_rows(result)
        scores = np.arange(-n, n + 1)
        frozen = 0
        # every score at every 16th stage: 8 million scalar lookups would take seconds
        for k in sorted({*range(0, n + 1, 16), 1, n - 1, n}):
            band = min(k, n - k)
            start, width = values.starts[k], len(values.rows[k])
            frozen += start if side == "low" else 2 * band + 1 - start - width
            reach = min(k + 1, n)
            xs = range(-reach, reach + 1)
            # outside the band a score reads sign(score) and defends
            want = np.sign(np.array(xs, dtype=float))
            want[reach - band : reach + band + 1] = value_rows[k]
            assert [values.value(k, x) for x in xs] == want.tolist()
            if k:
                bits = np.zeros(len(scores), bool)
                bits[n - band : n + band + 1] = policy_rows[k - 1]
                actions = [policy.action(k, x) is Action.OFF for x in xs]
                assert actions == bits[n - reach : n + reach + 1].tolist()
                assert policy.offense_mask(k, scores).tolist() == bits.tolist()
        assert frozen > 0

    @pytest.mark.parametrize("frozen_bit", [True, False])
    def test_a_hand_built_table_reads_each_frozen_side(self, frozen_bit):
        # horizon 6, bands 1, 2, 3, 2, 1, 0 at stages 1..6: stage 2's window
        # leaves a frozen cell on each side, stage 3's one above it, stage 4's
        # one below it, and the others cover their band. Window cells hold
        # 0.5 and the bit the frozen sides do not have
        n = 6
        windows = {0: (0, 1), 1: (0, 3), 2: (1, 3), 3: (0, 6), 4: (1, 4), 5: (0, 3), 6: (0, 1)}
        starts = [windows[k][0] for k in range(n + 1)]
        value_rows = [np.full(windows[k][1], 0.5) for k in range(n + 1)]
        policy_rows = [np.full(windows[k][1], not frozen_bit, np.uint8) for k in range(1, n + 1)]
        values = dp.ValueTable(n, 0, value_rows, starts)
        policy = dp.PolicyTable(n, policy_rows, starts, frozen_bit, frozen_bit)
        scores = range(-n, n + 1)
        for k in range(n + 1):
            band = min(k, n - k)
            start, width = windows[k]
            # -1 below the window, 0 in it and +1 above it
            where = [(i >= width) - (i < 0) for i in range(band - start - n, band - start + n + 1)]
            want = [float(side) if side else 0.5 for side in where]
            assert [values.value(k, x) for x in scores] == want
            assert values._expanded_row(k).tolist() == want[n - band : n + band + 1]
            if k:
                frozen = [bool(side) for side in where]
                bits = [abs(x) <= band and f == frozen_bit for x, f in zip(scores, frozen)]
                assert [policy.action(k, x) is Action.OFF for x in scores] == bits
                assert policy.offense_mask(k, np.array(scores)).tolist() == bits
                assert policy._expanded_row(k).tolist() == bits[n - band : n + band + 1]


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

    def test_entries_of_a_missing_label_are_refused(self, chess):
        curve = gain_curve(chess, 3, ("optimal", "cat"))
        for bad in ("nope", "off", ["cat"], None):
            with pytest.raises(InvalidPolicy, match="no curve labelled"):
                curve.entries(bad)

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

    @pytest.mark.parametrize(
        "labels",
        [
            ("optimal", "greedy"), "greedy", None, 42, [["optimal"]], [{"cat"}], b"off", b"",
            np.array(3), np.array("off"),
        ],
    )
    def test_bad_labels_raise_a_library_error(self, chess, labels):
        with pytest.raises(InvalidPolicy) as info:
            gain_curve(chess, 4, labels)
        assert isinstance(info.value, MatchPlayError)
        assert all(label in str(info.value) for label in POLICY_LABELS)

    @pytest.mark.parametrize("labels", [b"off", b"", bytearray(b"off")])
    def test_bytes_are_one_label(self, chess, labels):
        # as a str is: iterating b"off" would report the labels [111, 102, 102],
        # and b"" would report that no label was given
        with pytest.raises(InvalidPolicy) as info:
            gain_curve(chess, 4, labels)
        assert f"unknown policy labels [{labels!r}]" in str(info.value)

    @pytest.mark.parametrize("labels", [[], ()])
    def test_no_labels_rejected_with_the_accepted_ones(self, chess, labels):
        with pytest.raises(InvalidPolicy, match="no policy labels given") as info:
            gain_curve(chess, 4, labels)
        assert all(label in str(info.value) for label in POLICY_LABELS)

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

    def test_n_star_is_the_first_horizon_of_the_float_maximum(self):
        # a sure-draw defense: the exact gain rises toward L = 0.2 at every
        # horizon, but the float gains stall at one value from N = 1030 on,
        # so N* is where rounding stops the rise, not the exact optimum
        spec = SPEC_GRID[12]
        assert find_optimal_horizon(spec, 2000) == (1030, 0.19999999999999224)
        gains = gain_curve(spec, 2000).gains["optimal"]
        assert np.count_nonzero(gains == gains.max()) == 971
        assert gains.max() < optimal_limit(spec).optimal_limit


class TestSolverAgainstForwardEvaluation:
    def test_replaying_the_policy_reproduces_the_gain(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec = random_spec(rng)
            n = int(rng.integers(1, 13))
            result = solve(spec, n)
            replay = exact_policy_gain(spec, table_policy(result.policy), n)
            assert replay == pytest.approx(result.gain, abs=EXACT_TOL)


# short-decimal specs the integer recursion takes exactly; the last five
# defenses are fair (two sure draws), and two of those specs score exactly 0
# at every horizon
EXACT_ANCHOR_PROBS = [
    CHESS_PROBS,
    GRIND_PROBS,
    (0.3, 0.4, 0.3, 0.1, 0.8, 0.1),
    (0.4, 0.0, 0.6, 0.15, 0.7, 0.15),
    (0.0, 0.3, 0.7, 0.2, 0.6, 0.2),
    (0.45, 0.0, 0.55, 0.0, 1.0, 0.0),
    (0.3, 0.1, 0.6, 0.0, 1.0, 0.0),
]


class TestExactAnchor:
    @pytest.mark.parametrize("probs", EXACT_ANCHOR_PROBS)
    def test_sweep_agrees_with_the_integer_recursion_at_200(self, probs):
        spec = make_spec(*probs)
        exact = exact_bellman_gains(spec, 200)
        floats = gain_curve(spec, 200).gains["optimal"]
        assert abs(solve(spec, 200).gain - float(exact[200])) <= EXACT_TOL
        for want, got in zip(exact[1:], floats):
            assert abs(got - float(want)) <= EXACT_TOL
            if want == 0 and spec.defense.win == spec.defense.loss:
                # the fair-defense floor is exact, not just within tolerance
                assert got == 0.0

    def test_the_recursion_matches_the_exhaustive_oracle(self):
        for probs in EXACT_ANCHOR_PROBS[:5]:
            spec = make_spec(*probs)
            exact = exact_bellman_gains(spec, 4)
            for n in range(1, 5):
                assert float(exact[n]) == brute_force_optimal(spec, n)

    @pytest.mark.parametrize(
        ("probs", "want"),
        [
            (CHESS_PROBS, 0.0524903125),
            ((0.20, 0.3, 0.50, 0.10, 0.60, 0.30), -0.4715),
            ((0.30, 0.2, 0.50, 0.0, 1.0, 0.0), 0.0249),
        ],
        ids=["chess", "heavy_draw", "sure_draw"],
    )
    def test_the_oracle_at_its_horizon_budget(self, probs, want):
        spec = make_spec(*probs)
        # 5 is policies.ORACLE_MAX_HORIZON, the largest horizon the oracle takes
        assert float(exact_bellman_gains(spec, 5)[5]) == brute_force_optimal(spec, 5) == want


class TestBudgetsAndValidation:
    def test_solve_budget(self, chess):
        with pytest.raises(HorizonTooLarge):
            solve(chess, 20_001)

    def test_curve_budget(self, chess):
        with pytest.raises(HorizonTooLarge):
            gain_curve(chess, 100_001)

    def test_budget_override(self, chess, monkeypatch):
        want = solve(chess, 50).gain
        # the table budget is read at call time: lowered it refuses, raised it admits
        monkeypatch.setattr(dp, "DEFAULT_TABLE_HORIZON_BUDGET", 10)
        with pytest.raises(HorizonTooLarge):
            solve(chess, 50)
        monkeypatch.setattr(dp, "DEFAULT_TABLE_HORIZON_BUDGET", 50)
        assert solve(chess, 50).gain == want

    def test_a_raised_budget_reaches_every_route(self, chess, monkeypatch):
        want = gain_curve(chess, 8, POLICY_LABELS).gains
        # a budget of 4 stages stands in for the default, 8 for a raised one;
        # the one name in analytic is the budget of every value-only route
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 4)
        with pytest.raises(HorizonTooLarge):
            gain_curve(chess, 8, POLICY_LABELS)
        with pytest.raises(HorizonTooLarge):
            find_optimal_horizon(chess, 8)
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 8)
        got = gain_curve(chess, 8, POLICY_LABELS).gains
        for label in POLICY_LABELS:
            assert got[label].tobytes() == want[label].tobytes()

    @pytest.mark.parametrize("name", _BUDGETED)
    def test_each_budgeted_function_reads_its_constant(self, name, monkeypatch):
        (module, constant), call = _BUDGETED[name]
        spec = make_spec(*SURE_DRAW_PROBS)
        want = pickle.dumps(call(spec, 3))
        monkeypatch.setattr(module, constant, 3)
        with pytest.raises(HorizonTooLarge):
            call(spec, 4)
        # pickled, a result's floats and arrays compare bit for bit
        assert pickle.dumps(call(spec, 3)) == want

    def test_bad_horizons_rejected(self, chess):
        for bad in (0, -3, 2.5, "six", None, True, np.True_, float("inf")):
            with pytest.raises(InvalidHorizon):
                solve(chess, bad)
        with pytest.raises(InvalidHorizon):
            find_optimal_horizon(chess, 0)
