"""Finite-horizon solver for the two-style match problem.

The value of a match position depends only on the score and on how many games
are still to play, so one backward recursion over "games remaining" serves
every horizon at once:

    U_0(x) = sign(x)
    U_k(x) = max( E_offense[ U_{k-1}(x + step) ],
                  E_defense[ U_{k-1}(x + step) ] )

The optimal expected final-score sign of an N-game match is U_N(0), and the
whole gain curve for horizons 1..N falls out of a single sweep.

Two structural facts keep the sweep cheap. States with |score| > games
remaining are already decided, their value is sign(score) and never needs the
recursion. States with |score| > games played can never occur. The sweep
evaluates only the intersection of the two bands, the undecided reachable
scores, which is roughly half of the lattice (2112 of 4096 cells at N = 64).
Skipping the rest is exact: the tests pin every row bit for bit against a
per-cell reference that evaluates the full reachable triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import analytic
from .core import POLICY_LABELS, Action, MatchSpec, require_instance
from .errors import InvalidPolicy, InvalidState, require_horizon, require_integer

DEFAULT_VALUE_HORIZON_BUDGET = analytic.DEFAULT_VALUE_HORIZON_BUDGET
DEFAULT_TABLE_HORIZON_BUDGET = 20_000


class _Sweep(NamedTuple):
    gains: np.ndarray
    value_rows: list | None
    policy_rows: list | None
    evaluations: int


def _bellman_sweep(
    spec: MatchSpec,
    n_max: int,
    *,
    tables: bool = False,
) -> _Sweep:
    """Backward recursion for ``n_max`` stages over a sign-initialized buffer.

    Stage k evaluates the Bellman operator on the undecided reachable band,
    |score| <= min(k, n_max - k). Cells outside it always hold sign(score),
    which is the exact value of every decided state. With ``tables`` the
    sweep also keeps every stage's value and policy row.

    A stage allocates nothing but the rows it keeps: both styles' expectations
    are written into scratch rows allocated once per call, and their maximum
    straight into the buffer. A stage at the horizons of a parameter scan
    costs a few microseconds, most of it per-call overhead, so the loop makes
    few numpy calls: ufuncs bound to locals, ``out`` positional where numpy
    takes it, and each stage's gain read as a Python float.

    The clamp to [-1, 1] is in-place ``minimum`` and ``maximum``, not the
    costlier ``np.clip``, and a side runs only if rounding can cross it.
    Rounding is monotone, so on inputs in [-1, 1] a style's stencil stays in
    [-s, s], s = (win + loss) + draw in floats: the ceiling is needed only
    when the larger sum exceeds 1, the floor under the maximum only when both
    do. A skipped side would have returned the same bits.
    """
    (pw, pd, pl), (qw, qd, ql) = map(analytic.style_coefficients, (spec.offense, spec.defense))
    sums = [(style.win + style.loss) + style.draw for style in (spec.offense, spec.defense)]
    ceiling = np.array(1.0) if max(sums) > 1.0 else None
    floor = np.array(-1.0) if min(sums) > 1.0 else None
    multiply, add, maximum, minimum = np.multiply, np.add, np.maximum, np.minimum
    center = n_max + 1
    xs = np.arange(-center, center + 1)
    buf = np.sign(xs).astype(np.float64)  # U_0 plus one guard cell per side
    cells = memoryview(buf)
    off_row, def_row, tmp_row = np.empty((3, 2 * n_max + 1))
    gains = [0.0]
    value_rows = [np.zeros(1)] if tables else None
    policy_rows = [] if tables else None
    evaluations = 0
    for k in range(1, n_max + 1):
        band = min(k, n_max - k)  # undecided scores the match can reach
        lo, hi = center - band, center + band
        width = hi - lo + 1
        up = buf[lo + 1 : hi + 2]
        mid = buf[lo : hi + 1]
        down = buf[lo - 1 : hi]
        off, dfn, tmp = off_row[:width], def_row[:width], tmp_row[:width]
        # (w*up + l*down) + d*mid: this association makes the stencil exactly
        # antisymmetric for fair styles, so a fair defense floors the computed
        # gain at 0.0 instead of at rounding noise below it
        multiply(up, pw, off)
        multiply(down, pl, tmp)
        add(off, tmp, off)
        multiply(mid, pd, tmp)
        add(off, tmp, off)
        multiply(up, qw, dfn)
        multiply(down, ql, tmp)
        add(dfn, tmp, dfn)
        multiply(mid, qd, tmp)
        add(dfn, tmp, dfn)
        evaluations += width
        # the new values overwrite the old ones in place: every product that
        # reads them has been taken; maximum and minimum keep ``out=``, as
        # numpy deprecates a positional ``out`` for them
        maximum(off, dfn, out=mid)
        # only the clamp sides this spec's style sums let rounding cross
        if ceiling is not None:
            minimum(mid, ceiling, out=mid)
        if floor is not None:
            maximum(mid, floor, out=mid)
        if tables:
            policy_rows.append((off > dfn).view(np.uint8))
            value_rows.append(mid.copy())
        gains.append(cells[center])
    return _Sweep(np.array(gains), value_rows, policy_rows, evaluations)


def _lattice_point(games_remaining, score) -> tuple[int, int]:
    """Stage and score as plain ints; ``InvalidState`` unless both are integers.

    Plain Python, no numpy call: a scalar lookup costs well under a
    microsecond, so plain ints skip the general guard.
    """
    if type(games_remaining) is int and type(score) is int:
        return games_remaining, score
    k = require_integer(games_remaining, InvalidState, "stage must be an integer", -math.inf)
    x = require_integer(score, InvalidState, "score must be an integer", -math.inf)
    return k, x


def _band(horizon: int, games_remaining: int, largest: int, first_stage: int) -> int:
    """Half-width of the stored band at a stage whose largest |score| is ``largest``.

    Raises ``InvalidState`` unless the stage lies in [first_stage, horizon]
    and ``largest`` does not exceed the horizon.
    """
    if not first_stage <= games_remaining <= horizon:
        raise InvalidState(f"stage must lie in [{first_stage}, {horizon}], got {games_remaining}")
    if largest > horizon:
        raise InvalidState(f"|score| must not exceed {horizon}, got {largest}")
    # not min(): the builtin call would cost as much as the rest of a lookup
    rest = horizon - games_remaining
    return games_remaining if games_remaining < rest else rest


@dataclass(frozen=True)
class ValueTable:
    """Optimal values on the (games remaining, score) lattice of one horizon.

    Row k stores values for |score| <= min(k, horizon - k), the scores the
    match can still reach with an undecided result. Everything outside that
    band reads as sign(score): either the result is forced or the score is
    impossible this late in the match.
    """

    horizon: int
    evaluations: int
    rows: list = field(repr=False)

    def value(self, games_remaining: int, score: int) -> float:
        k, x = _lattice_point(games_remaining, score)
        band = _band(self.horizon, k, abs(x), 0)
        if abs(x) > band:
            return float((x > 0) - (x < 0))
        return float(self.rows[k][x + band])

    @property
    def gain(self) -> float:
        return self.value(self.horizon, 0)


@dataclass(frozen=True)
class PolicyTable:
    """Optimal actions on the same lattice, ties resolved toward defense.

    Actions are stored for the undecided reachable band of each stage; every
    other query returns defense by convention, the choice there cannot change
    the match result.
    """

    horizon: int
    rows: list = field(repr=False)

    def action(self, games_remaining: int, score: int) -> Action:
        k, x = _lattice_point(games_remaining, score)
        band = _band(self.horizon, k, abs(x), 1)
        return Action.OFF if abs(x) <= band and self.rows[k - 1][x + band] else Action.DEF

    def offense_mask(self, games_remaining: int, scores: np.ndarray) -> np.ndarray:
        """Vectorised ``action(...) is Action.OFF`` over an array of scores."""
        k, _ = _lattice_point(games_remaining, 0)
        scores = np.asarray(scores)
        if scores.dtype.kind not in "iu":
            raise InvalidState(f"scores must be integers, got dtype {scores.dtype}")
        # the extremes as Python ints: np.abs and + wrap at a narrow dtype's edge
        largest = max(int(scores.max(initial=0)), -int(scores.min(initial=0)))
        band = _band(self.horizon, k, largest, 1)
        scores = scores.astype(np.int64, copy=False)  # exact: |scores| <= horizon
        return (np.abs(scores) <= band) & (self.rows[k - 1].take(scores + band, mode="clip") != 0)


class SolveResult(NamedTuple):
    values: ValueTable
    policy: PolicyTable
    gain: float


class HorizonResult(NamedTuple):
    horizon: int
    gain: float


@dataclass(frozen=True)
class GainCurve:
    """Per-horizon gains of one or more policies, horizons sorted ascending."""

    horizons: np.ndarray
    gains: dict

    def entries(self, label: str) -> list[tuple[int, float]]:
        return list(zip(self.horizons.tolist(), (float(g) for g in self.gains[label])))


def solve(
    spec: MatchSpec,
    n_games: int,
    *,
    max_horizon: int | None = None,
) -> SolveResult:
    """Optimal value and policy tables for an ``n_games`` match.

    Returns (values, policy, gain) with gain = values.value(n_games, 0).
    Storing both tables costs O(N^2) memory, so the default budget is
    20,000 stages; raise ``max_horizon`` knowingly.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games, max_horizon, DEFAULT_TABLE_HORIZON_BUDGET)
    sweep = _bellman_sweep(spec, n, tables=True)
    values = ValueTable(n, sweep.evaluations, sweep.value_rows)
    policy = PolicyTable(n, sweep.policy_rows)
    return SolveResult(values, policy, float(sweep.gains[n]))


def gain_curve(
    spec: MatchSpec,
    n_max: int,
    policies: Iterable[str] = ("optimal",),
    *,
    max_horizon: int | None = None,
) -> GainCurve:
    """Gains of the requested policies for every horizon 1..n_max.

    Labels: "optimal" (one backward sweep serves all horizons), "cat" and
    "catplus" (exact forward evaluation of the protect-the-lead policies),
    "off" and "def" (fixed styles via convolution); a bare string is one
    label. Value-only memory, so the default budget is 100,000 stages.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_max, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    # a bare string, None or another non-iterable is one label
    single = isinstance(policies, str) or not isinstance(policies, Iterable)
    labels = [policies] if single else list(policies)
    if not labels:
        raise InvalidPolicy(f"no policy labels given; choose from {POLICY_LABELS}")
    # a label that is not a string, a list say, is unknown, not a TypeError
    unknown = [x for x in labels if not (isinstance(x, str) and x in POLICY_LABELS)]
    if unknown:
        raise InvalidPolicy(f"unknown policy labels {unknown}; choose from {POLICY_LABELS}")
    # a raised budget reaches the other routes; left unset, the calls keep the
    # form that bench/tracer.py counts their work from
    budget = {} if max_horizon is None else {"max_horizon": max_horizon}
    curves: dict[str, np.ndarray] = {}
    if "optimal" in labels:
        curves["optimal"] = _bellman_sweep(spec, n).gains[1:]
    if "cat" in labels or "catplus" in labels:
        from . import policies as policy_mod  # deferred to avoid an import cycle

        cat_curve, catplus_curve = policy_mod.lead_policy_curves(spec, n, **budget)
        if "cat" in labels:
            curves["cat"] = cat_curve
        if "catplus" in labels:
            curves["catplus"] = catplus_curve
    if "off" in labels:
        curves["off"] = analytic.fixed_style_gain_curve(spec.offense, n, **budget)
    if "def" in labels:
        curves["def"] = analytic.fixed_style_gain_curve(spec.defense, n, **budget)
    ordered = {label: curves[label] for label in POLICY_LABELS if label in curves}
    return GainCurve(np.arange(1, n + 1), ordered)


def find_optimal_horizon(
    spec: MatchSpec,
    n_max: int,
    *,
    max_horizon: int | None = None,
) -> HorizonResult:
    """Horizon in 1..n_max with the largest optimal gain, smallest on ties."""
    require_instance(spec, MatchSpec)
    n = require_horizon(n_max, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    gains = _bellman_sweep(spec, n).gains
    best_n = int(np.argmax(gains[1:])) + 1  # argmax keeps the first maximum
    return HorizonResult(best_n, float(gains[best_n]))
