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
recursion. States with |score| > games played can never occur. Pruning to the
intersection of the two bands removes roughly half of the lattice without
changing a single bit of the result; the unpruned mode exists as a baseline
that evaluates the full reachable triangle and is used to count the saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import analytic
from .core import Action, MatchSpec
from .errors import InvalidState, require_horizon

DEFAULT_VALUE_HORIZON_BUDGET = 100_000
DEFAULT_TABLE_HORIZON_BUDGET = 20_000

POLICY_LABELS = ("optimal", "cat", "catplus", "off", "def")


class _Sweep(NamedTuple):
    gains: np.ndarray
    value_rows: list | None
    policy_rows: list | None
    evaluations: int


def _bellman_sweep(
    spec: MatchSpec,
    n_max: int,
    *,
    prune: bool = True,
    tables: bool = False,
) -> _Sweep:
    """Backward recursion for ``n_max`` stages over a sign-initialized buffer.

    Cells outside the written band always hold sign(score), which is the exact
    value of every decided state. The unpruned mode evaluates the Bellman
    operator on the full reachable triangle but retains only the undecided
    band, so both modes produce bit-identical tables. With ``tables`` the
    sweep also keeps every stage's value and policy row.
    """
    pw, pd, pl = spec.offense.win, spec.offense.draw, spec.offense.loss
    qw, qd, ql = spec.defense.win, spec.defense.draw, spec.defense.loss
    center = n_max + 1
    xs = np.arange(-center, center + 1)
    buf = np.sign(xs).astype(np.float64)  # U_0 plus one guard cell per side
    gains = np.zeros(n_max + 1)
    value_rows = [np.zeros(1)] if tables else None
    policy_rows = [] if tables else None
    evaluations = 0
    for k in range(1, n_max + 1):
        keep = min(k, n_max - k)  # undecided scores the match can reach
        band = keep if prune else (n_max - k)
        lo, hi = center - band, center + band
        up = buf[lo + 1 : hi + 2]
        mid = buf[lo : hi + 1]
        down = buf[lo - 1 : hi]
        # (w*up + l*down) + d*mid: this association makes the stencil exactly
        # antisymmetric for fair styles, so a fair defense floors the computed
        # gain at 0.0 instead of at rounding noise below it
        off_val = (pw * up + pl * down) + pd * mid
        def_val = (qw * up + ql * down) + qd * mid
        evaluations += hi - lo + 1
        best = np.maximum(off_val, def_val)
        # rounding can push a convex combination a few ulp past +-1
        np.clip(best, -1.0, 1.0, out=best)
        s = band - keep
        segment = slice(s, s + 2 * keep + 1)
        kept = best[segment]
        if tables:
            policy_rows.append((off_val[segment] > def_val[segment]).astype(np.uint8))
            value_rows.append(kept.copy())
        buf[center - keep : center + keep + 1] = kept
        gains[k] = buf[center]
    return _Sweep(gains, value_rows, policy_rows, evaluations)


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
        k, x = int(games_remaining), int(score)
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
        k, x = int(games_remaining), int(score)
        band = _band(self.horizon, k, abs(x), 1)
        return Action.OFF if abs(x) <= band and self.rows[k - 1][x + band] else Action.DEF

    def offense_mask(self, games_remaining: int, scores: np.ndarray) -> np.ndarray:
        """Vectorised ``action(...) is Action.OFF`` over an array of scores."""
        k = int(games_remaining)
        scores = np.asarray(scores)
        magnitude = np.abs(scores)
        band = _band(self.horizon, k, int(magnitude.max(initial=0)), 1)
        return (magnitude <= band) & (self.rows[k - 1].take(scores + band, mode="clip") != 0)


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
    prune: bool = True,
    max_horizon: int | None = None,
) -> SolveResult:
    """Optimal value and policy tables for an ``n_games`` match.

    Returns (values, policy, gain) with gain = values.value(n_games, 0).
    Storing both tables costs O(N^2) memory, so the default budget is
    20,000 stages; raise ``max_horizon`` knowingly.
    """
    n = require_horizon(n_games, max_horizon, DEFAULT_TABLE_HORIZON_BUDGET)
    sweep = _bellman_sweep(spec, n, prune=prune, tables=True)
    values = ValueTable(n, sweep.evaluations, sweep.value_rows)
    policy = PolicyTable(n, sweep.policy_rows)
    return SolveResult(values, policy, float(sweep.gains[n]))


def gain_curve(
    spec: MatchSpec,
    n_max: int,
    policies: Iterable[str] = ("optimal",),
    *,
    prune: bool = True,
    max_horizon: int | None = None,
) -> GainCurve:
    """Gains of the requested policies for every horizon 1..n_max.

    Labels: "optimal" (one backward sweep serves all horizons), "cat" and
    "catplus" (exact forward evaluation of the protect-the-lead policies),
    "off" and "def" (fixed styles via convolution); a bare string is one
    label. Value-only memory, so the default budget is 100,000 stages.
    """
    n = require_horizon(n_max, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    labels = list(dict.fromkeys([policies] if isinstance(policies, str) else policies))
    unknown = [label for label in labels if label not in POLICY_LABELS]
    if unknown:
        raise ValueError(f"unknown policy labels {unknown}; choose from {POLICY_LABELS}")
    curves: dict[str, np.ndarray] = {}
    if "optimal" in labels:
        curves["optimal"] = _bellman_sweep(spec, n, prune=prune).gains[1:]
    if "cat" in labels or "catplus" in labels:
        from . import policies as policy_mod  # deferred to avoid an import cycle

        cat_curve, catplus_curve = policy_mod.lead_policy_curves(spec, n)
        if "cat" in labels:
            curves["cat"] = cat_curve
        if "catplus" in labels:
            curves["catplus"] = catplus_curve
    if "off" in labels:
        curves["off"] = analytic.fixed_style_gain_curve(spec.offense, n)
    if "def" in labels:
        curves["def"] = analytic.fixed_style_gain_curve(spec.defense, n)
    ordered = {label: curves[label] for label in POLICY_LABELS if label in curves}
    return GainCurve(np.arange(1, n + 1), ordered)


def find_optimal_horizon(
    spec: MatchSpec,
    n_max: int,
    *,
    prune: bool = True,
    max_horizon: int | None = None,
) -> HorizonResult:
    """Horizon in 1..n_max with the largest optimal gain, smallest on ties."""
    n = require_horizon(n_max, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    gains = _bellman_sweep(spec, n, prune=prune).gains
    best_n = 1
    for k in range(2, n + 1):
        if gains[k] > gains[best_n]:
            best_n = k
    return HorizonResult(best_n, float(gains[best_n]))
