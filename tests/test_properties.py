"""Property tests on generated specs.

The Bellman sweep is checked byte for byte against a per-cell Python
reference of the same recursion, over the undecided band and over the full
reachable triangle, at long horizons against a numpy reference without the
frontier, and the solver against the exhaustive oracle on short-decimal
specs. The forward evaluator is checked byte for byte against
a walk through the allocating reference stencil, and against the trinomial
closed form; the one-pass protect-the-lead curves bit for bit against
evaluating each horizon, and Monte Carlo estimates against exact gains and
byte for byte against a one-match-at-a-time replay of the same streams.
Examples are derandomized, so every run draws the same specs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchplay import (
    MatchSpec,
    brute_force_optimal,
    cat_plus_policy,
    cat_policy,
    estimate_gain,
    exact_policy_gain,
    fixed_style_gain,
    fixed_style_gain_curve,
    gain_curve,
    lead_policy_curves,
    propagate_policy,
    score_distribution,
    sign_expectation,
    solve,
    table_policy,
)
from matchplay.analytic import _BLOCK_STAGES as BLOCK
from matchplay.analytic import walk
from matchplay.dp import _bellman_sweep
from matchplay.policies import Policy, as_policy, offense_row
from matchplay.sim import _final_signs

from conftest import (
    band_reference,
    expanded_rows,
    reference_final_signs,
    reference_stages,
    reference_step,
    reference_sweep,
)

EXACT_TOL = 1e-12
FORMULA_TOL = 1e-10

FORWARD_LABELS = ("cat", "catplus", "off", "def")

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

unit = st.floats(0.0, 1.0)


@st.composite
def specs(draw):
    """Any valid spec, with fair and sure-draw defenses and fair offenses mixed in.

    ``slack`` lets both draw probabilities overshoot a unit sum by less than
    the spec tolerance; with a style that never loses (or never wins) a value
    then rounds past +-1 and the sweep's clamp decides the stored bits.
    """
    slack = draw(st.sampled_from((0.0, 4e-13)))
    pd = draw(st.floats(0.0, 0.5))
    pw = (1.0 - pd) / 2 if draw(st.booleans()) else (1.0 - pd) * draw(unit)
    defense = draw(st.sampled_from(("any", "fair", "sure_draw")))
    if defense == "sure_draw":
        qw, qd = 0.0, 1.0
    else:
        qd = pd + (1.0 - pd) * draw(unit)
        qw = (1.0 - qd) / 2 if defense == "fair" else (1.0 - qd) * draw(unit)
    pl, ql = 1.0 - pd - pw, 1.0 - qd - qw
    qd = qd + slack if qd + slack <= 1.0 else qd
    return MatchSpec.from_probs(pw, pd + slack, pl, qw, qd, ql)


def _with_sum(win, loss, side, slack):
    """(win, draw, loss) whose sum ``(win + loss) + draw`` is 1, above or below it.

    At ``side`` 0 the draw is ``1 - (win + loss)``, which makes the sum exactly
    1. Otherwise the draw moves ``slack`` toward ``side`` and then an ulp at a
    time until the sum lies on that side of 1.
    """
    draw = 1.0 - (win + loss) + side * slack
    while ((win + loss) + draw > 1.0) - ((win + loss) + draw < 1.0) != side:
        draw = math.nextafter(draw, side * math.inf)
    return win, draw, loss


@st.composite
def sum_specs(draw):
    """Specs whose style sums are exactly 1, or an ulp or 4e-13 above or below it.

    The sums decide whether the sweep can freeze a cell at -1 (both at least
    1) or +1 (either at least 1) and the policy bit a frozen cell keeps.
    Either both styles lose, and long matches freeze at -1, or the offense
    wins, and they freeze at +1.
    """
    losing = draw(st.booleans())
    pd = draw(st.floats(1e-3, 0.3))
    qd = draw(st.floats(pd, 0.95))
    probs = []
    for d, wins in ((pd, not losing), (qd, False)):
        share = draw(st.floats(0.55, 0.95) if wins else st.floats(0.05, 0.45))
        win = (1.0 - d) * share
        side = draw(st.sampled_from((-1, 0, 1)))
        probs += _with_sum(win, 1.0 - d - win, side, draw(st.sampled_from((0.0, 4e-13))))
    return MatchSpec.from_probs(*probs)


@st.composite
def short_decimal_specs(draw):
    """Specs in whole hundredths, which the integer oracle takes exactly."""
    pw, pd = draw(st.integers(0, 100)), draw(st.integers(0, 100))
    pd = min(pd, 100 - pw)
    qd = draw(st.integers(pd, 100))
    qw = draw(st.integers(0, 100 - qd))
    return MatchSpec.from_probs(
        pw / 100, pd / 100, (100 - pw - pd) / 100, qw / 100, qd / 100, (100 - qd - qw) / 100
    )


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@PROPERTY_SETTINGS
@given(spec=specs(), n=st.integers(1, 40))
def test_sweep_matches_the_per_cell_reference_bit_for_bit(prune, spec, n):
    gains, value_rows, policy_rows, _ = reference_sweep(spec, n, prune)
    # the sweep evaluates the undecided band only, as the pruned reference does
    band_cells = reference_sweep(spec, n, True)[3]
    curve = _bellman_sweep(spec, n)
    tables = _bellman_sweep(spec, n, tables=True)
    for sweep in (curve, tables):
        assert sweep.gains.tobytes() == np.array(gains).tobytes()
        assert sweep.evaluations == band_cells
    got_values, got_policy = expanded_rows(tables)
    assert len(got_values) == len(value_rows) == n + 1
    for got, want in zip(got_values, value_rows):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
    assert len(got_policy) == len(policy_rows) == n
    for got, want in zip(got_policy, policy_rows):
        assert got.dtype == np.uint8
        assert got.tobytes() == np.array(want, dtype=np.uint8).tobytes()


@settings(PROPERTY_SETTINGS, max_examples=14)
@given(spec=sum_specs(), n=st.sampled_from((548, 1585, 3000)))
def test_sweep_matches_the_band_reference_at_long_horizons(spec, n):
    # the frontier skips most of the band here, the reference none of it
    gains, value_rows, policy_rows, evaluations = band_reference(spec, n)
    tables = _bellman_sweep(spec, n, tables=True)
    for sweep in (_bellman_sweep(spec, n), tables):
        assert sweep.gains.tobytes() == gains.tobytes()
        assert sweep.evaluations == evaluations
    got_values, got_policy = expanded_rows(tables)
    for got, want in zip(got_values, value_rows, strict=True):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(got_policy, policy_rows, strict=True):
        assert got.tobytes() == want.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=short_decimal_specs(), n=st.integers(1, 4))
def test_solver_matches_the_exhaustive_oracle(spec, n):
    assert abs(solve(spec, n).gain - brute_force_optimal(spec, n)) <= EXACT_TOL


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=specs(), n=st.integers(1, 40) | st.sampled_from((63, 64, 65, 97)))
def test_forward_walks_match_the_allocating_reference_byte_for_byte(spec, n):
    # the walk reuses its rows; every stage must equal a walk on fresh rows,
    # also past two edges of the blocks of views, where per-cell stages (the
    # table and the plain callable) read their coefficients through the views
    def chase_until_ahead_late(remaining, score, has_led):
        return "Def" if has_led or (score > 0 and remaining <= 3) else "Off"

    table = table_policy(solve(spec, n).policy)
    policies = ("Off", "Def", cat_policy(), cat_plus_policy(spec), table, chase_until_ahead_late)
    for policy in policies:
        stages = propagate_policy(spec, policy, n).stages
        want = reference_stages(spec, policy, n)
        assert len(stages) == len(want) == n + 1
        for got, ref in zip(stages, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        # a flag-blind policy's gain is summed from a one-layer walk
        flagged = as_policy(policy).uses_lead_flag
        final = (want if flagged else reference_stages(spec, policy, n, False))[-1].sum(axis=0)
        exact = np.float64(exact_policy_gain(spec, policy, n))
        assert exact.tobytes() == np.float64(sign_expectation(final, n)).tobytes()
    for style in (spec.offense, spec.defense):
        mass = np.zeros(2 * n + 1)
        mass[n] = 1.0
        gains = []
        for played in range(n):
            mass = reference_step(mass, played, style.win, style.draw, style.loss)
            gains.append(sign_expectation(mass, n))
        assert fixed_style_gain_curve(style, n).tobytes() == np.array(gains).tobytes()
        assert score_distribution(style, n).tobytes() == mass.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=specs(), n=st.integers(1, 200))
def test_forward_walk_of_a_fixed_style_matches_the_closed_form(spec, n):
    assert abs(exact_policy_gain(spec, "Off", n) - fixed_style_gain(spec.offense, n)) <= FORMULA_TOL
    assert abs(exact_policy_gain(spec, "Def", n) - fixed_style_gain(spec.defense, n)) <= FORMULA_TOL


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=specs(), n=st.integers(1, 40))
def test_lead_curves_match_per_horizon_evaluation_bit_for_bit(spec, n):
    refined = cat_plus_policy(spec)
    horizons = range(1, max(n, 2) + 1)
    cat = [exact_policy_gain(spec, cat_policy(), m) for m in horizons]
    catplus = [exact_policy_gain(spec, refined, m) for m in horizons]
    # one and two games leave fewer than five cells around score 0
    for n_max in {1, 2, n}:
        curves = lead_policy_curves(spec, n_max)
        assert curves[0].tobytes() == np.array(cat[:n_max]).tobytes()
        assert curves[1].tobytes() == np.array(catplus[:n_max]).tobytes()


class _LayerRules(Policy):
    """A policy that plays its own rule in each layer of the lead flag.

    A rule maps (games remaining, scores) to a plain bool, one style for the
    row, or to an offense mask, per-cell styles.
    """

    def __init__(self, not_led, led):
        self.rules = not_led, led

    def decide_row(self, games_remaining, scores, has_led):
        return self.rules[has_led](games_remaining, scores)


@st.composite
def layer_rules(draw, spec, n):
    """One layer's rule: a fixed style, a solved table's per-cell masks, the
    refined rule of either layer (one style, and a mask at its last stage),
    styles that switch at drawn stages, or one style with masks at drawn
    stages."""
    kind = draw(st.sampled_from(("off", "def", "table", "refined", "switch", "masks")))
    if kind in ("off", "def"):
        return lambda k, scores, offense=kind == "off": offense
    if kind == "table":
        table = solve(spec, n).policy
        return table.offense_mask
    if kind == "refined":
        refined, led = cat_plus_policy(spec), draw(st.booleans())
        return lambda k, scores: refined.decide_row(k, scores, led)
    if kind == "switch":
        # the style changes at every drawn stage, so the layer's slots are rewritten
        stages = draw(st.sets(st.integers(1, n), max_size=4))
        return lambda k, scores: sum(k >= stage for stage in stages) % 2 == 0
    # a style held before a mask is written again after it
    stages = draw(st.sets(st.integers(1, n), min_size=1, max_size=4))
    return lambda k, scores: scores >= 0 if k in stages else True



@settings(PROPERTY_SETTINGS, max_examples=30)
@given(data=st.data(), spec=specs(), n=st.integers(BLOCK + 1, 3 * BLOCK + 1))
def test_interleaved_walk_equals_each_layer_stepped_alone(data, spec, n):
    # the walk steps its layers interleaved by score in one stencil call per
    # stage; the reference steps each layer alone on fresh rows. Horizons
    # cross one to three edges of the blocks of views
    for flagged in (True, False):
        rules = [data.draw(layer_rules(spec, n)) for _ in range(2)]
        policy = _LayerRules(*rules)
        want = reference_stages(spec, policy, n, flagged)
        rule = functools.partial(offense_row, policy)
        stages = walk(n, spec.offense, spec.defense, rule, flagged)
        for played, layers in enumerate(stages):
            assert np.stack(layers).tobytes() == want[played].tobytes(), (flagged, played)
        assert played == n


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(spec=specs(), n=st.integers(1, 3 * BLOCK + 1))
def test_forward_labels_together_equal_each_label_alone(spec, n):
    together = gain_curve(spec, n, FORWARD_LABELS).gains
    assert list(together) == list(FORWARD_LABELS)
    for label in FORWARD_LABELS:
        assert together[label].tobytes() == gain_curve(spec, n, label).gains[label].tobytes()


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=specs(), n=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_monte_carlo_lies_within_five_sigma_of_the_exact_gain(spec, n, seed):
    samples = 2_000
    for policy in (cat_policy(), table_policy(solve(spec, n).policy)):
        exact = exact_policy_gain(spec, policy, n)
        estimate = estimate_gain(spec, policy, n, samples, seed)
        # exact gains lie in [-1, 1], so the variance bound is never negative
        sigma = np.sqrt((1 - exact**2) / samples)
        assert abs(estimate.mean - exact) <= 5 * sigma + EXACT_TOL


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(
    spec=specs(),
    n=st.integers(1, 25),
    seed=st.integers(0, 2**128 - 1),
    offset=st.integers(0, 100),
    samples=st.integers(1, 60),
)
def test_monte_carlo_signs_match_the_scalar_replay_byte_for_byte(spec, n, seed, offset, samples):
    table = table_policy(solve(spec, n).policy)
    for policy in ("Off", "Def", cat_policy(), cat_plus_policy(spec), table):
        got = _final_signs(spec, policy, n, samples, seed, offset)
        want = reference_final_signs(spec, policy, n, samples, seed, offset)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
