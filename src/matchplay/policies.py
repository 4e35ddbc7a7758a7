"""Benchmark switching policies and their exact evaluation.

A policy maps (games remaining, score, has the score ever been positive) to a
style. The flag is the only history the benchmark policies need: the
protect-the-lead rule attacks until it first leads and then sits on the lead,
so its state is exactly "have I led yet".

A policy's single primitive is ``decide_row``, the offense mask over a row
of scores, and every engine reads it through ``offense_row``, which checks
the mask: the exact walk, the Monte Carlo rounds and the scalar ``decide``.
``decide`` raises ``InvalidState`` unless the stage is a positive integer,
the score an integer and the flag a bool, before any rule or callable reads
them. A row that plays one style throughout may be returned as one plain
``bool`` instead of a mask: the fixed styles and the plain protect-the-lead
rule do so at every stage, and the refined rule at every stage but the
last. The evaluators then pick that style's coefficients or thresholds once
for the whole row. The row a policy reads is read-only in every engine, so
a policy cannot write the walk's scores or the live Monte Carlo ones, and
``as_policy``, which every engine calls, refuses a ``uses_lead_flag`` that
is not a bool.

Evaluation is exact: the joint distribution of (score, led yet) is propagated
forward one game at a time, which costs O(N^2) and no sampling error. Every
exact forward pass, here and in ``analytic``'s fixed-style convolution, is
one walk, ``analytic.walk``, through the stencil the Bellman sweep also
uses, ``analytic.stencil``. The walk interleaves a policy's two layers
(never led, has led) by score in one row per parity, so one stencil call
steps both, in gather form over views the walk makes once per block of
stages and into rows it reuses; a stage allocates nothing but a masked
row's coefficients. A policy enters the walk as its offense rule,
``offense_row`` bound to the policy, with the spec's two styles: for a row
returned as one bool the walk keeps that style's coefficients in the
layer's slots until the bool changes, and for a mask it writes each cell's
style over the layer's band. Outside the band the mass is +0 and every
coefficient finite and at least +0, so the bits are those of stepping each
layer's band alone. The trinomial sum in ``analytic`` shares no code with
the walk and serves as the independent check. Every gain is
``analytic.sign_expectation``'s two sums of a distribution, clamped, and so
lies in [-1, 1].

The protect-the-lead curves for all horizons come from one walk under the
plain rule, ``CatPolicy.decide_row``, which needs no mask: the never-led
layer plays offense and the led layer defense, each written into its slots
once. The refined rule changes only a level last game, so its curve takes
the same walk's mass and recomputes the three cells around score 0 at each
stage, in Python floats from each layer's five cells near 0. Each stage's
sums are taken directly into the curves, with no per-call guard, and both
curves are clamped once at the end; the tests pin both curves bit for bit
against evaluating each horizon on its own. A separate brute-force oracle
enumerates every stage-and-score policy with integer arithmetic for tiny
horizons and anchors the solver tests.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import analytic, dp
from .core import EQ_TOL, Action, MatchSpec, require_instance
from .errors import (
    InvalidOracleInput,
    InvalidPolicy,
    InvalidState,
    OracleHorizonTooLarge,
    RegimeNotCovered,
    require_horizon,
    require_integer,
)

ORACLE_MAX_HORIZON = 5
_ORACLE_SCALE = 10**6

DEFAULT_PROPAGATE_HORIZON_BUDGET = 2_000

_BOOL = np.dtype(bool)

_ACTION_NAMES = {"off": Action.OFF, "def": Action.DEF}


class Policy:
    """Deterministic decision rule on (games remaining, score, led yet).

    ``has_led`` records whether the score has ever been positive. Policies
    that ignore it set ``uses_lead_flag`` to False, which lets the evaluator
    drop the flag from its state. ``uses_lead_flag`` must be a ``bool`` or
    a numpy bool; ``as_policy``, and so every evaluator, raises
    ``InvalidPolicy`` for anything else. ``decide_row`` receives a
    read-only row of scores, and a write to it raises numpy's ``ValueError``.
    """

    uses_lead_flag: bool = True

    def decide_row(
        self, games_remaining: int, scores: np.ndarray, has_led: bool
    ) -> np.ndarray | bool:
        """Offense mask over a read-only 1-D row of integer scores.

        Either an array of the scores' shape, bool or integer (nonzero is
        offense), or one plain ``bool`` when the whole row plays one style.
        A subclass must override this; the base class raises
        ``InvalidPolicy``.
        """
        raise InvalidPolicy(f"{type(self).__name__} does not override decide_row")

    def decide(self, games_remaining: int, score: int, has_led: bool) -> Action:
        """The style at one state, or ``InvalidState`` for a state ``_decision_point`` refuses."""
        games_remaining, score, has_led = _decision_point(games_remaining, score, has_led)
        # a read-only one-cell row, as the walk and Monte Carlo hand decide_row
        offense = offense_row(self, games_remaining, np.broadcast_to(score, (1,)), has_led)
        if type(offense) is not bool:
            offense = offense[0]
        return Action.OFF if offense else Action.DEF

    def __call__(self, games_remaining: int, score: int, has_led: bool = False) -> Action:
        return self.decide(games_remaining, score, has_led)


def _decision_point(games_remaining, score, has_led) -> tuple[int, int, bool]:
    """Stage, score and lead flag as plain Python values, or ``InvalidState``.

    The stage and score are read as a table lookup reads them, by
    ``dp._lattice_point``; the stage must also be positive, and the flag a
    bool or numpy bool.
    """
    k, x = dp._lattice_point(games_remaining, score)
    if k < 1:
        raise InvalidState(f"stage must be a positive integer, got {games_remaining!r}")
    if not isinstance(has_led, (bool, np.bool_)):
        raise InvalidState(f"has_led must be a bool, got {has_led!r}")
    return k, x, bool(has_led)


def _coerce_action(value) -> Action:
    if isinstance(value, str):
        value = _ACTION_NAMES.get(value.strip().lower(), value)
    if not isinstance(value, Action):
        raise InvalidPolicy(f"expected Off or Def, got {value!r}")
    return value


class FixedPolicy(Policy):
    """Always play the same style."""

    uses_lead_flag = False

    def __init__(self, action):
        self.action = _coerce_action(action)

    def decide_row(self, games_remaining, scores, has_led):
        return self.action is Action.OFF

    def __repr__(self):
        return f"FixedPolicy({self.action.value})"


class CatPolicy(Policy):
    """Attack until the score first becomes positive, then defend forever."""

    def decide_row(self, games_remaining, scores, has_led):
        return not has_led

    def __repr__(self):
        return "CatPolicy()"


class CatPlusPolicy(Policy):
    """Protect the lead, but pick the better style when the last game is level.

    ``final_offense`` says which style has the larger one-game drift; it is
    played whenever one game remains and the score is zero, whether or not
    the player has led before. It must be a ``bool`` or a numpy bool scalar;
    anything else raises ``InvalidPolicy`` rather than being read as truthy.
    """

    def __init__(self, final_offense: bool):
        if not isinstance(final_offense, (bool, np.bool_)):
            raise InvalidPolicy(f"final_offense must be a bool, got {final_offense!r}")
        self.final_offense = bool(final_offense)

    def decide_row(self, games_remaining, scores, has_led):
        if games_remaining != 1 or self.final_offense != has_led:
            return not has_led
        # the last game, where a level score plays final_offense and every
        # other score its opposite, not has_led
        scores = np.asarray(scores)
        return scores == 0 if self.final_offense else scores != 0

    def __repr__(self):
        return f"CatPlusPolicy(final_offense={self.final_offense})"


class TablePolicy(Policy):
    """Play the actions recorded in a solved policy table."""

    uses_lead_flag = False

    def __init__(self, table: dp.PolicyTable):
        if not isinstance(table, dp.PolicyTable):
            raise InvalidPolicy(f"expected a solved PolicyTable, got {table!r}")
        self.table = table

    def decide_row(self, games_remaining, scores, has_led):
        return self.table.offense_mask(games_remaining, scores)

    def __repr__(self):
        return f"TablePolicy(horizon={self.table.horizon})"


class _FunctionPolicy(Policy):
    """Adapter turning a plain callable into a policy."""

    def __init__(self, fn: Callable[[int, int, bool], Action]):
        self.fn = fn

    def decide(self, games_remaining, score, has_led):
        return _coerce_action(self.fn(*_decision_point(games_remaining, score, has_led)))

    def decide_row(self, games_remaining, scores, has_led):
        k, _, led = _decision_point(games_remaining, 0, has_led)
        # one call per distinct score: a Monte Carlo row repeats each score
        # many times, and a plain callable is a pure function of its inputs
        distinct, where = np.unique(dp._score_row(scores), return_inverse=True)
        offense = np.fromiter(
            (_coerce_action(self.fn(k, x, led)) is Action.OFF for x in distinct.tolist()),
            dtype=bool,
            count=len(distinct),
        )
        return offense[where]


def fixed_policy(action) -> FixedPolicy:
    """Policy that plays ``action`` ("Off" or "Def") in every game."""
    return FixedPolicy(action)


def cat_policy() -> CatPolicy:
    """Protect-the-lead policy: offense until the first lead, then defense."""
    return CatPolicy()


def cat_plus_policy(spec: MatchSpec) -> CatPlusPolicy:
    """Protect-the-lead with the drift-better style when the last game is level."""
    require_instance(spec, MatchSpec)
    return CatPlusPolicy(spec.offense.drift > spec.defense.drift)


def table_policy(table: dp.PolicyTable) -> TablePolicy:
    """Policy that replays a solved optimal action table."""
    return TablePolicy(table)


def as_policy(policy) -> Policy:
    """Coerce a Policy, action name, policy table, or callable into a Policy.

    A ``Policy`` whose ``uses_lead_flag`` is not a bool or numpy bool raises
    ``InvalidPolicy``: the walk would lay out ``1 + flag`` layers for it.
    """
    if isinstance(policy, Policy):
        if not isinstance(policy.uses_lead_flag, (bool, np.bool_)):
            raise InvalidPolicy(f"uses_lead_flag must be a bool, got {policy.uses_lead_flag!r}")
        return policy
    if isinstance(policy, dp.PolicyTable):
        return TablePolicy(policy)
    if isinstance(policy, (Action, str)):
        return FixedPolicy(policy)
    if callable(policy):
        try:
            inspect.signature(policy).bind(1, 0, False)
        except TypeError:
            raise InvalidPolicy(
                f"{policy!r} cannot be called as (games_remaining, score, has_led)"
            ) from None
        except ValueError:
            pass  # no signature to read, as for some builtins: called as given
        return _FunctionPolicy(policy)
    raise InvalidPolicy(f"cannot interpret {policy!r} as a policy")


def offense_row(
    policy: Policy, games_remaining: int, scores: np.ndarray, has_led: bool
) -> np.ndarray | bool:
    """``policy.decide_row`` as a bool mask or one bool, checked where the library reads it.

    This is the offense rule every engine reads: bound to the policy it is
    the rule of ``analytic.walk``, and the Monte Carlo rounds and ``decide``
    call it too.

    A plain ``bool`` passes unchecked: the whole row plays that style. A
    custom policy's mask must have the scores' shape and a bool or integer
    dtype (nonzero is offense); anything else raises ``InvalidPolicy``. Only
    the shape and dtype are read, so a bool mask costs no pass over it.
    """
    mask = policy.decide_row(games_remaining, scores, has_led)
    if type(mask) is bool:
        return mask
    # every built-in policy returns a bool array of the scores' shape, which
    # these tests accept without the np.asarray and dtype.kind calls below
    if type(mask) is np.ndarray and mask.dtype is _BOOL and mask.shape == scores.shape:
        return mask
    mask = np.asarray(mask)
    if mask.shape != scores.shape or mask.dtype.kind not in "biu":
        raise InvalidPolicy(
            f"{policy!r} returned an offense mask of shape {mask.shape} and dtype {mask.dtype} "
            f"for scores of shape {scores.shape}; expected that shape and a bool or integer dtype"
        )
    return mask != 0


def exact_policy_gain(spec: MatchSpec, policy, n_games: int) -> float:
    """Expected final-score sign of ``policy`` over an ``n_games`` match.

    Exact forward propagation, O(N^2) time and O(N) memory. Policies that
    condition on having led carry a two-layer distribution (never led / has
    led), both layers stepped by one stencil call a stage; flag-blind
    policies use a single layer.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games, analytic.DEFAULT_VALUE_HORIZON_BUDGET)
    policy = as_policy(policy)
    rule = functools.partial(offense_row, policy)
    for layers in analytic.walk(n, spec.offense, spec.defense, rule, policy.uses_lead_flag):
        pass
    mass = layers[0] + layers[1] if policy.uses_lead_flag else layers[0]
    return analytic.sign_expectation(mass, n)


@dataclass(frozen=True)
class AugmentedDistribution:
    """Joint law of (score, led yet) after each game of a match.

    ``stages[t]`` is a (2, 2*horizon+1) array for the position after t games:
    row 0 holds paths whose score was never positive, row 1 the rest. Scores
    are indexed by x + horizon.
    """

    horizon: int
    stages: list = field(repr=False)

    @property
    def center(self) -> int:
        return self.horizon

    def _stage(self, games_played) -> np.ndarray:
        if games_played is None:
            return self.stages[self.horizon]
        rule = f"games played must be an integer in [0, {self.horizon}]"
        return self.stages[require_integer(games_played, InvalidState, rule, 0, self.horizon + 1)]

    def score_distribution(self, games_played: int | None = None) -> np.ndarray:
        stage = self._stage(games_played)
        return stage[0] + stage[1]

    def lead_probability(self, games_played: int | None = None) -> float:
        return float(self._stage(games_played)[1].sum())

    @property
    def gain(self) -> float:
        return analytic.sign_expectation(self.score_distribution(), self.center)

    def max_mass_drift(self) -> float:
        """Largest deviation of any stage's total mass from 1."""
        return max(abs(float(stage.sum()) - 1.0) for stage in self.stages)


def propagate_policy(spec: MatchSpec, policy, n_games: int) -> AugmentedDistribution:
    """Forward law of (score, led yet) after every game under ``policy``.

    Keeps all intermediate stages, so memory is quadratic in the horizon and
    the budget is ``DEFAULT_PROPAGATE_HORIZON_BUDGET``, 2,000 stages.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games, DEFAULT_PROPAGATE_HORIZON_BUDGET)
    rule = functools.partial(offense_row, as_policy(policy))
    walk = analytic.walk(n, spec.offense, spec.defense, rule, flagged=True)
    stages = [np.stack(layers) for layers in walk]
    return AugmentedDistribution(n, stages)


def lead_policy_curves(spec: MatchSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact protect-the-lead gains for every horizon 1..n_max, in one pass.

    The plain rule never looks at the horizon, so one forward pass under it
    yields every horizon's gain. The refined rule differs from it only when
    the last game starts level, and the stencil is linear, so its
    horizon-(s+1) mass is the plain stage-(s+1) mass except at scores -1, 0
    and +1. Score 0 is in neither of ``sign_expectation``'s sums, so only
    the cells at -1 and +1 are recomputed from the stage-s mass; no second
    pass runs.

    A stage of h games writes its two layers' sum at scores +1..+h, and at
    -1..-h through a reversed view, into rows 0 and 1 of a (4, n_max) block
    made once per call. One slice copy makes rows 2 and 3, and the refined
    rule's +1 and -1 cells overwrite their first cells, through a
    memoryview. One ``np.add.reduce`` along the rows of ``block[:, :h]``
    then takes the four sums: the band is exactly the horizon's whole row,
    and a 2-D reduce groups each row as that row reduced alone, so the sums
    have the per-horizon lengths and bits. The gains are collected in lists
    and each curve is clamped to [-1, 1] once at the end, which gives the
    values of clamping each gain. The tests pin both curves bit for bit
    against evaluating each horizon separately.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_max, analytic.DEFAULT_VALUE_HORIZON_BUDGET)
    off, dfn = spec.offense, spec.defense
    final = off if cat_plus_policy(spec).final_offense else dfn
    coefs = [(style.win, style.draw, style.loss) for style in (off, dfn, final)]
    cat_gains, catplus_gains = [], []
    # plain above 0, plain below 0 mirrored, refined above, refined below
    block, sums = np.empty((4, n)), np.empty(4)
    flat, add, reduce = memoryview(block.reshape(-1)), np.add, np.add.reduce
    # each layer's five cells at scores -2..2; past a layer's ends no mass
    pad = [0.0] * max(0, 2 - n)
    near = slice(n - 2 + len(pad), n + 3 - len(pad))
    walk = analytic.walk(n, off, dfn, cat_policy().decide_row, True)
    not_led, led = next(walk)
    for played in range(1, n + 1):
        cells = pad + not_led[near].tolist() + pad, pad + led[near].tolist() + pad
        minus_one, plus_one = _level_finish(*cells, *coefs)
        not_led, led = next(walk)
        rows = block[:, :played]
        add(not_led[n + 1 : n + played + 1], led[n + 1 : n + played + 1], rows[0])
        add(not_led[n - played : n], led[n - played : n], rows[1, ::-1])
        rows[2:] = rows[:2]
        flat[2 * n], flat[3 * n] = plus_one, minus_one
        reduce(rows, 1, None, sums)
        plain_above, plain_below, refined_above, refined_below = sums.tolist()
        cat_gains.append(plain_above - plain_below)
        catplus_gains.append(refined_above - refined_below)
    # rounding can carry a sure result an ulp past +-1
    return np.clip(cat_gains, -1.0, 1.0), np.clip(catplus_gains, -1.0, 1.0)


def _level_finish(not_led: list, led: list, off: tuple, dfn: tuple, final: tuple) -> tuple:
    """Mass at scores -1 and +1 after a last game where score 0 plays ``final``.

    ``not_led`` and ``led`` hold each layer's mass at scores -2..2; every
    other score plays ``off`` in the never-led layer and ``dfn`` in the led
    one, each a (win, draw, loss) tuple. This is ``analytic.stencil``, with
    its association, in Python floats, and the two layers' sum: on two
    cells the scalar arithmetic is faster than five numpy calls per layer,
    and a test pins its bits against the kernel. Score 0's cell is not
    computed, as no gain reads it.
    """
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) = not_led, led
    (pw, pd, pl), (qw, qd, ql), (fw, fd, fl) = off, dfn, final
    return (
        ((pw * a0 + fl * a2) + pd * a1) + ((qw * b0 + fl * b2) + qd * b1),
        ((fw * a2 + pl * a4) + pd * a3) + ((fw * b2 + ql * b4) + qd * b3),
    )


def cat_gain_curve(spec: MatchSpec, n_max: int) -> np.ndarray:
    """Exact gain of the plain protect-the-lead policy for horizons 1..n_max."""
    return lead_policy_curves(spec, n_max)[0]


def cat_plus_gain_curve(spec: MatchSpec, n_max: int) -> np.ndarray:
    """Exact gain of the refined protect-the-lead policy for horizons 1..n_max."""
    return lead_policy_curves(spec, n_max)[1]


def _scaled_probs(style) -> tuple[int, int, int]:
    units = []
    for p in (style.win, style.draw, style.loss):
        u = round(p * _ORACLE_SCALE)
        # int / int is the float nearest the exact quotient
        if u / _ORACLE_SCALE != p:
            raise InvalidOracleInput(
                f"probability {p!r} is not an exact multiple of 1e-6; "
                "the enumeration oracle needs short decimal inputs"
            )
        units.append(u)
    if sum(units) != _ORACLE_SCALE:
        raise InvalidOracleInput(
            f"scaled probabilities {units} do not sum to {_ORACLE_SCALE}"
        )
    return tuple(units)


def brute_force_optimal(spec: MatchSpec, n_games: int) -> float:
    """Exhaustive maximum of the expected final sign over all decision rules.

    Enumerates every joint assignment of styles to the reachable undecided
    states, with integer arithmetic over millionths, and takes the maximum
    over whole assignments, never split cell by cell; the result is therefore
    the correctly rounded exact optimum. Each cell's moves per unit of mass
    depend only on (games left, score, style), so they are built once per
    call and every node scales them by its cell masses. Exponential in the
    horizon; refuses more than 5 games. Inputs must be exact multiples of
    1e-6.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games)
    if n > ORACLE_MAX_HORIZON:
        raise OracleHorizonTooLarge(
            f"policy enumeration is exponential; horizon {n} exceeds {ORACLE_MAX_HORIZON}"
        )
    styles = (_scaled_probs(spec.offense), _scaled_probs(spec.defense))
    scale_pow = [_ORACLE_SCALE**k for k in range(n + 1)]
    # settled[left][x] holds each style's value settled by the next game per
    # unit of mass, in units of SCALE**n; children[left][x] holds each style's
    # undecided children with their per-unit weights
    settled, children = {}, {}
    for left in range(1, n + 1):
        unit = scale_pow[left - 1]
        settled[left], children[left] = {}, {}
        for x in range(left - n, n - left + 1):
            cell_values, cell_kids = [], []
            for units in styles:
                value, style_kids = 0, []
                for cx, u in zip((x + 1, x, x - 1), units):
                    if u and abs(cx) >= left:
                        value += (u if cx > 0 else -u) * unit
                    elif u:
                        style_kids.append((cx, u))
                cell_values.append(value)
                cell_kids.append(style_kids)
            settled[left][x] = tuple(cell_values)
            children[left][x] = cell_kids

    def best_from(played: int, mass: dict[int, int]) -> int:
        # mass maps undecided scores to integer weights over SCALE**played;
        # the return value is in units of SCALE**n
        left = n - played
        row = settled[left]
        values = [(m * row[x][0], m * row[x][1]) for x, m in mass.items()]
        totals = map(sum, itertools.product(*values))
        if left == 1:
            # the last game leaves every child settled or level, worth 0
            return max(totals)
        row = children[left]
        kids = [[[(cx, m * u) for cx, u in style] for style in row[x]] for x, m in mass.items()]
        best = None
        for total, choice in zip(totals, itertools.product(*kids)):
            merged: dict[int, int] = {}
            for cell in choice:
                for cx, cm in cell:
                    merged[cx] = merged.get(cx, 0) + cm
            value = total + (best_from(played + 1, merged) if merged else 0)
            if best is None or value > best:
                best = value
        return best

    # int / int is the float nearest the exact quotient, so the optimum is correctly rounded
    return best_from(0, {0: 1}) / scale_pow[n]


class IdentityReport(NamedTuple):
    horizon: int
    max_discrepancy: float
    worst_horizon: int
    optimal: np.ndarray
    catplus_envelope: np.ndarray


def cat_plus_identity_check(spec: MatchSpec, n_max: int) -> IdentityReport:
    """Compare optimal gains against the refined protect-the-lead envelope.

    The envelope is the running best refined protect-the-lead gain floored at
    zero. It never exceeds the optimal gain when the defense draws surely and
    the offense strictly loses: stalling first and lead-chasing afterwards is
    itself a valid plan, as is stalling throughout. For many offenses the two
    curves agree exactly, but equality is not universal: the optimal play can
    bank a draw after recovering from a deficit, which no lead-chasing plan
    reproduces, and for some offenses that slack is strictly profitable.
    Returns both curves and their largest absolute discrepancy so callers can
    tell the two situations apart.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_max)
    if not spec.classification.safe_defense:
        raise RegimeNotCovered("the gain identity needs a defense that draws surely")
    if not spec.offense.win < spec.offense.loss - EQ_TOL:
        raise RegimeNotCovered("the gain identity needs a strictly losing offense")
    optimal = dp.gain_curve(spec, n).gains["optimal"]
    catplus = cat_plus_gain_curve(spec, n)
    envelope = np.maximum(0.0, np.maximum.accumulate(catplus))
    gaps = np.abs(optimal - envelope)
    worst = int(np.argmax(gaps))
    return IdentityReport(n, float(gaps[worst]), worst + 1, optimal, envelope)
