"""Benchmark switching policies and their exact evaluation.

A policy maps (games remaining, score, has the score ever been positive) to a
style. The flag is the only history the benchmark policies need: the
protect-the-lead rule attacks until it first leads and then sits on the lead,
so its state is exactly "have I led yet".

A policy's single primitive is ``decide_row``, the offense mask over a row
of scores; the scalar ``decide`` is derived from it.

Evaluation is exact: the joint distribution of (score, led yet) is propagated
forward one game at a time, which costs O(N^2) and no sampling error. Every
exact forward pass, here and in ``analytic``'s fixed-style convolution, runs
through one banded stencil, ``analytic.step``, which touches only the
reachable scores. The trinomial sum in ``analytic`` shares no code with it and
serves as the independent check. A separate brute-force oracle enumerates
every stage-and-score policy with integer arithmetic for tiny horizons and
anchors the solver tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import analytic, dp
from .core import EQ_TOL, Action, MatchSpec
from .errors import (
    InvalidOracleInput,
    OracleHorizonTooLarge,
    RegimeNotCovered,
    require_horizon,
)

ORACLE_MAX_HORIZON = 5
_ORACLE_SCALE = 10**6

DEFAULT_PROPAGATE_HORIZON_BUDGET = 2_000


class Policy:
    """Deterministic decision rule on (games remaining, score, led yet).

    ``has_led`` records whether the score has ever been positive. Policies
    that ignore it set ``uses_lead_flag`` to False, which lets the evaluator
    drop the flag from its state.
    """

    uses_lead_flag: bool = True

    def decide_row(self, games_remaining: int, scores: np.ndarray, has_led: bool) -> np.ndarray:
        """Offense mask over a whole row of scores."""
        raise NotImplementedError

    def decide(self, games_remaining: int, score: int, has_led: bool) -> Action:
        offense = self.decide_row(games_remaining, np.array([score]), has_led)[0]
        return Action.OFF if offense else Action.DEF

    def __call__(self, games_remaining: int, score: int, has_led: bool = False) -> Action:
        return self.decide(games_remaining, score, has_led)


def _coerce_action(value) -> Action:
    if isinstance(value, Action):
        return value
    if isinstance(value, str):
        try:
            return {"off": Action.OFF, "def": Action.DEF}[value.strip().lower()]
        except KeyError:
            pass
    raise ValueError(f"expected Off or Def, got {value!r}")


class FixedPolicy(Policy):
    """Always play the same style."""

    uses_lead_flag = False

    def __init__(self, action):
        self.action = _coerce_action(action)

    def decide_row(self, games_remaining, scores, has_led):
        return np.full(np.shape(scores), self.action is Action.OFF)

    def __repr__(self):
        return f"FixedPolicy({self.action.value})"


class CatPolicy(Policy):
    """Attack until the score first becomes positive, then defend forever."""

    def decide_row(self, games_remaining, scores, has_led):
        return np.full(np.shape(scores), not has_led)

    def __repr__(self):
        return "CatPolicy()"


class CatPlusPolicy(Policy):
    """Protect the lead, but pick the better style when the last game is level.

    ``final_offense`` says which style has the larger one-game drift; it is
    played whenever one game remains and the score is zero, whether or not
    the player has led before.
    """

    def __init__(self, final_offense: bool):
        self.final_offense = bool(final_offense)

    def decide_row(self, games_remaining, scores, has_led):
        mask = np.full(np.shape(scores), not has_led)
        if games_remaining == 1:
            mask = np.where(np.asarray(scores) == 0, self.final_offense, mask)
        return mask

    def __repr__(self):
        return f"CatPlusPolicy(final_offense={self.final_offense})"


class TablePolicy(Policy):
    """Play the actions recorded in a solved policy table."""

    uses_lead_flag = False

    def __init__(self, table: dp.PolicyTable):
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
        return _coerce_action(self.fn(games_remaining, score, has_led))

    def decide_row(self, games_remaining, scores, has_led):
        return np.fromiter(
            (self.decide(games_remaining, int(x), has_led) is Action.OFF for x in scores),
            dtype=bool,
            count=len(scores),
        )


def fixed_policy(action) -> FixedPolicy:
    """Policy that plays ``action`` ("Off" or "Def") in every game."""
    return FixedPolicy(action)


def cat_policy() -> CatPolicy:
    """Protect-the-lead policy: offense until the first lead, then defense."""
    return CatPolicy()


def cat_plus_policy(spec: MatchSpec) -> CatPlusPolicy:
    """Protect-the-lead with the drift-better style when the last game is level."""
    return CatPlusPolicy(spec.offense.drift > spec.defense.drift)


def table_policy(table: dp.PolicyTable) -> TablePolicy:
    """Policy that replays a solved optimal action table."""
    return TablePolicy(table)


def as_policy(policy) -> Policy:
    """Coerce a Policy, action name, policy table, or callable into a Policy."""
    if isinstance(policy, Policy):
        return policy
    if isinstance(policy, dp.PolicyTable):
        return TablePolicy(policy)
    if isinstance(policy, (Action, str)):
        return FixedPolicy(policy)
    if callable(policy):
        return _FunctionPolicy(policy)
    raise TypeError(f"cannot interpret {policy!r} as a policy")


def _walk(spec: MatchSpec, policy: Policy, n: int, flagged: bool):
    """Yield the mass layers after 0..n games of an ``n``-game match.

    With ``flagged`` the layers are (never led, has led); otherwise a single
    layer carries all the mass. Layers have width 2n + 1 and are centred at n.
    """
    scores = np.arange(-n, n + 1)
    layers = [np.zeros(2 * n + 1) for _ in range(1 + flagged)]
    layers[0][n] = 1.0
    yield layers
    for played in range(n):
        band = scores[n - played : n + played + 1]
        layers = _play(spec, policy, n - played, layers, band)
        if flagged:
            # a never-led path can only reach +1 from 0, so one cell moves layers
            not_led, led = layers
            led[n + 1] += not_led[n + 1]
            not_led[n + 1] = 0.0
        yield layers


def _play(spec: MatchSpec, policy: Policy, remaining: int, layers, band: np.ndarray):
    """The layers after one more game; the second layer, if any, has led.

    ``band`` holds the scores [-t, t] reachable after the t games played.
    """
    played = len(band) // 2
    return [
        analytic.step(layer, played, *_coefficients(spec, policy.decide_row(remaining, band, led)))
        for led, layer in zip((False, True), layers)
    ]


def _coefficients(spec: MatchSpec, offense: np.ndarray) -> tuple:
    """Win, draw, loss coefficients of a band whose cells play ``offense``."""
    off, dfn = spec.offense, spec.defense
    count = np.count_nonzero(offense)
    if count == len(offense):
        return off.win, off.draw, off.loss
    if count == 0:
        return dfn.win, dfn.draw, dfn.loss
    return (
        np.where(offense, off.win, dfn.win),
        np.where(offense, off.draw, dfn.draw),
        np.where(offense, off.loss, dfn.loss),
    )


def exact_policy_gain(
    spec: MatchSpec,
    policy,
    n_games: int,
    *,
    max_horizon: int | None = None,
) -> float:
    """Expected final-score sign of ``policy`` over an ``n_games`` match.

    Exact forward propagation, O(N^2) time and O(N) memory. Policies that
    condition on having led carry a two-layer distribution (never led / has
    led); flag-blind policies use a single layer.
    """
    n = require_horizon(n_games, max_horizon, dp.DEFAULT_VALUE_HORIZON_BUDGET)
    policy = as_policy(policy)
    for layers in _walk(spec, policy, n, policy.uses_lead_flag):
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

    def score_distribution(self, games_played: int | None = None) -> np.ndarray:
        t = self.horizon if games_played is None else int(games_played)
        return self.stages[t][0] + self.stages[t][1]

    def lead_probability(self, games_played: int | None = None) -> float:
        t = self.horizon if games_played is None else int(games_played)
        return float(self.stages[t][1].sum())

    @property
    def gain(self) -> float:
        return analytic.sign_expectation(self.score_distribution(), self.center)

    def max_mass_drift(self) -> float:
        """Largest deviation of any stage's total mass from 1."""
        return max(abs(float(stage.sum()) - 1.0) for stage in self.stages)


def propagate_policy(
    spec: MatchSpec,
    policy,
    n_games: int,
    *,
    max_horizon: int | None = None,
) -> AugmentedDistribution:
    """Forward law of (score, led yet) after every game under ``policy``.

    Keeps all intermediate stages, so memory is quadratic in the horizon and
    the default budget is 2,000 stages.
    """
    n = require_horizon(n_games, max_horizon, DEFAULT_PROPAGATE_HORIZON_BUDGET)
    stages = [np.stack(layers) for layers in _walk(spec, as_policy(policy), n, True)]
    return AugmentedDistribution(n, stages)


def lead_policy_curves(
    spec: MatchSpec,
    n_max: int,
    *,
    max_horizon: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact protect-the-lead gains for every horizon 1..n_max, in one pass.

    The plain rule never looks at the horizon, so one forward pass under it
    yields every horizon's gain. The refined rule differs only in the last
    game, so its horizon-(s+1) gain is one refined step applied to the stage-s
    mass of the same pass. Gains are computed over the reachable score band,
    which makes them bit-identical to evaluating each horizon separately.
    """
    n = require_horizon(n_max, max_horizon, dp.DEFAULT_VALUE_HORIZON_BUDGET)
    refined = cat_plus_policy(spec)
    scores = np.arange(-n, n + 1)
    cat_gains = np.zeros(n)
    catplus_gains = np.zeros(n)
    for played, (not_led, led) in enumerate(_walk(spec, cat_policy(), n, True)):
        band = slice(n - played, n + played + 1)
        if played:
            cat_gains[played - 1] = analytic.sign_expectation(not_led[band] + led[band], played)
        if played < n:
            final = _play(spec, refined, 1, (not_led, led), scores[band])
            wide = slice(n - played - 1, n + played + 2)
            catplus_gains[played] = analytic.sign_expectation(
                final[0][wide] + final[1][wide], played + 1
            )
    return cat_gains, catplus_gains


def cat_gain_curve(spec: MatchSpec, n_max: int, *, max_horizon: int | None = None) -> np.ndarray:
    """Exact gain of the plain protect-the-lead policy for horizons 1..n_max."""
    return lead_policy_curves(spec, n_max, max_horizon=max_horizon)[0]


def cat_plus_gain_curve(
    spec: MatchSpec, n_max: int, *, max_horizon: int | None = None
) -> np.ndarray:
    """Exact gain of the refined protect-the-lead policy for horizons 1..n_max."""
    return lead_policy_curves(spec, n_max, max_horizon=max_horizon)[1]


def _scaled_probs(style) -> tuple[int, int, int]:
    units = []
    for p in (style.win, style.draw, style.loss):
        u = round(p * _ORACLE_SCALE)
        if float(Fraction(u, _ORACLE_SCALE)) != p:
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

    Enumerates every assignment of styles to reachable undecided states with
    integer arithmetic over millionths, so the result is the correctly
    rounded exact optimum. Exponential in the horizon; refuses more than 5
    games. Inputs must be exact multiples of 1e-6.
    """
    n = require_horizon(n_games)
    if n > ORACLE_MAX_HORIZON:
        raise OracleHorizonTooLarge(
            f"policy enumeration is exponential; horizon {n} exceeds {ORACLE_MAX_HORIZON}"
        )
    styles = (_scaled_probs(spec.offense), _scaled_probs(spec.defense))
    scale_pow = [_ORACLE_SCALE**k for k in range(n + 1)]

    def best_from(played: int, mass: dict[int, int]) -> int:
        # mass maps undecided scores to integer weights over SCALE**played;
        # the return value is in units of SCALE**n
        if played == n or not mass:
            return 0
        left = n - played
        cells = sorted(mass)
        best = None
        for choice in itertools.product(styles, repeat=len(cells)):
            settled = 0
            children: dict[int, int] = {}
            for x, (w, d, l) in zip(cells, choice):
                m = mass[x]
                for dx, units in ((1, w), (0, d), (-1, l)):
                    if units == 0:
                        continue
                    cx = x + dx
                    cm = m * units
                    if abs(cx) > left - 1:
                        settled += (cm if cx > 0 else -cm) * scale_pow[left - 1]
                    else:
                        children[cx] = children.get(cx, 0) + cm
            value = settled + best_from(played + 1, children)
            if best is None or value > best:
                best = value
        return best

    return float(Fraction(best_from(0, {0: 1}), scale_pow[n]))


class IdentityReport(NamedTuple):
    horizon: int
    max_discrepancy: float
    worst_horizon: int
    optimal: np.ndarray
    catplus_envelope: np.ndarray


def cat_plus_identity_check(
    spec: MatchSpec,
    n_max: int,
    *,
    max_horizon: int | None = None,
) -> IdentityReport:
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
    n = require_horizon(n_max)
    if not spec.classification.safe_defense:
        raise RegimeNotCovered("the gain identity needs a defense that draws surely")
    if not spec.offense.win < spec.offense.loss - EQ_TOL:
        raise RegimeNotCovered("the gain identity needs a strictly losing offense")
    optimal = dp.gain_curve(spec, n, max_horizon=max_horizon).gains["optimal"]
    catplus = cat_plus_gain_curve(spec, n, max_horizon=max_horizon)
    envelope = np.maximum(0.0, np.maximum.accumulate(catplus))
    gaps = np.abs(optimal - envelope)
    worst = int(np.argmax(gaps))
    return IdentityReport(n, float(gaps[worst]), worst + 1, optimal, envelope)
