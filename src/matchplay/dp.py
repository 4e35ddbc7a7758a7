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

A third fact is one of floating point. A cell whose three inputs are all
exactly -1 computes exactly -s per style, s = (win + loss) + draw in floats,
so once both sums reach 1 it reads -1 again after the clamp; likewise +1 when
either sum reaches 1. The weak player's long matches are lost almost surely,
so at long horizons most of the band freezes at -1, and the sweep computes
only the window between the frozen runs, with the same bits. The tables that
``solve`` returns keep only those windows too: a lookup below a window reads
-1 and one above it +1, with the frozen side's policy bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import analytic
from .core import POLICY_LABELS, Action, MatchSpec, require_instance
from .errors import InvalidPolicy, InvalidState, require_horizon, require_integer

DEFAULT_TABLE_HORIZON_BUDGET = 20_000


# The frontier rescan runs every _RESCAN_STAGES stages. Timed against a sweep
# without the frontier on weak specs (bench/workloads.weak_specs), rescans every
# 4, 8, 16 or 32 stages ran the same within noise.
_RESCAN_STAGES = 8

# ``PolicyTable.offense_mask`` reads a row with more in-range flips through a
# lookup and ``take``. Timed at 20,000 int8 scores on a 2-vCPU Xeon, the
# comparisons took 13 microseconds at 2 flips and 42 at 13, about 2.6 a flip,
# and the lookup 44 at any count, so the two meet near 15.
_MAX_MASK_FLIPS = 14


class _Sweep(NamedTuple):
    gains: np.ndarray
    values: ValueTable | None
    policy: PolicyTable | None
    evaluations: int
    computed: int  # the cells the stencil evaluated, at most ``evaluations``


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
    sweep also returns the value and policy tables of every stage.
    ``evaluations`` counts the band's cells, ``computed`` the cells the
    stencil evaluated.

    A stage allocates nothing but the rows it keeps: each style's expectation
    is one ``analytic.stencil`` call, the kernel the forward walk also
    steps, with the values one score up as its ``win_from``, written into
    scratch rows allocated once per call, and their maximum goes straight
    into the buffer. A stage at the horizons of a parameter scan costs a few
    microseconds, most of it per-call overhead, so the loop makes few calls:
    the kernel and ufuncs bound to locals, ``out`` positional where numpy
    takes it, and each stage's gain read as a Python float.

    The clamp to [-1, 1] is in-place ``minimum`` and ``maximum``, not the
    costlier ``np.clip``, and a side runs only if rounding can cross it.
    Rounding is monotone, so on inputs in [-1, 1] a style's stencil stays in
    [-s, s], s = (win + loss) + draw in floats: the ceiling is needed only
    when the larger sum exceeds 1, the floor under the maximum only when both
    do. A skipped side would have returned the same bits.

    Cells frozen at exactly -1 or +1 are skipped. Two frontiers bound them:
    every cell a stage reads below ``first`` holds -1, every one above
    ``last`` holds +1, and stage k computes only the window
    [max(lo, first - 1), min(hi, last + 1)] of its band [lo, hi]. A cell whose
    three inputs are all -1 computes -s per style, exactly, since negation
    commutes with rounding; after the clamp it is -1 again when
    min(s_off, s_def) >= 1, with the policy bit s_off < s_def. On the +1 side
    it computes s per style and stays +1 when max(s_off, s_def) >= 1, with the
    bit s_off > s_def. So a skipped cell keeps the bits it would have been
    given. When a sum is below 1 no band cell ever reaches that side, so the
    frontier there follows the band's edge and nothing is skipped.
    Each stage moves both frontiers out by one cell, which only recomputes
    frozen cells; every ``_RESCAN_STAGES`` stages a rescan through the
    ``memoryview`` pulls them in over the cells that read -1 and +1, stopping
    at score 0 so no window is empty. A rescan starts from the frontier, not
    from the band's edge, so it never walks the whole frozen run again.

    A stored row is the computed window alone, one copy of the values and
    the bits ``off > dfn``, with the window's offset in its band; the tables
    read a band cell below the window as -1 with ``low_bit`` and one above it
    as +1 with ``high_bit``, the bits it would have been given.
    """
    (pw, pd, pl), (qw, qd, ql) = map(analytic.style_coefficients, (spec.offense, spec.defense))
    s_off, s_def = ((style.win + style.loss) + style.draw for style in (spec.offense, spec.defense))
    ceiling = np.array(1.0) if max(s_off, s_def) > 1.0 else None
    floor = np.array(-1.0) if min(s_off, s_def) > 1.0 else None
    # the policy bit of a cell frozen at -1 (low) or +1 (high)
    low_bit, high_bit = s_off < s_def, s_off > s_def
    stencil, maximum, minimum = analytic.stencil, np.maximum, np.minimum
    center = n_max + 1
    xs = np.arange(-center, center + 1)
    buf = np.sign(xs).astype(np.float64)  # U_0 plus one guard cell per side
    cells = memoryview(buf)
    off_row, def_row, tmp_row = np.empty((3, 2 * n_max + 1))
    gains = [0.0]
    value_rows, policy_rows, starts = [np.zeros(1)], [], [0]
    first = last = center  # U_0 reads -1 below score 0 and +1 above it
    computed = 0
    for k in range(1, n_max + 1):
        # not min() or max(): a builtin call costs as much as a short slice
        band = k if k < n_max - k else n_max - k  # undecided scores the match can reach
        lo, hi = center - band, center + band
        first = first - 1 if first > lo else lo
        last = last + 1 if last < hi else hi
        width = last - first + 1
        up = buf[first + 1 : last + 2]
        mid = buf[first : last + 1]
        down = buf[first - 1 : last]
        off, dfn, tmp = off_row[:width], def_row[:width], tmp_row[:width]
        # a win leads to the value one score up; the stencil's association
        # makes it exactly antisymmetric for fair styles, so a fair defense
        # floors the computed gain at 0.0 instead of at rounding noise below it
        stencil(up, mid, down, pw, pd, pl, off, tmp)
        stencil(up, mid, down, qw, qd, ql, dfn, tmp)
        computed += width
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
            value_rows.append(mid.copy())
            policy_rows.append((off > dfn).view(np.uint8))
            starts.append(first - lo)
        gains.append(cells[center])
        if not k % _RESCAN_STAGES:
            while first < center and cells[first] == -1.0:
                first += 1
            while last > center and cells[last] == 1.0:
                last -= 1
    # the band's cells, the sum over k of 2 * min(k, n_max - k) + 1
    evaluations = n_max + 2 * (n_max * n_max // 4)
    values = ValueTable(n_max, evaluations, value_rows, starts) if tables else None
    policy = PolicyTable(n_max, policy_rows, starts, low_bit, high_bit) if tables else None
    return _Sweep(np.array(gains), values, policy, evaluations, computed)


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


def _score_row(scores) -> np.ndarray:
    """``scores`` as a 1-D integer array; ``InvalidState`` for any other row."""
    scores = np.asarray(scores)
    if scores.ndim != 1 or scores.dtype.kind not in "iu":
        raise InvalidState(
            f"scores must be a 1-D integer array, got shape {scores.shape} "
            f"and dtype {scores.dtype}"
        )
    return scores


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


def _expanded(row: np.ndarray, start: int, band: int, below, above) -> np.ndarray:
    """A window ``row`` stored ``start`` cells into a band as the whole band."""
    full = np.full(2 * band + 1, above, row.dtype)
    full[:start] = below
    full[start : start + len(row)] = row
    return full


@dataclass(frozen=True)
class ValueTable:
    """Optimal values on the (games remaining, score) lattice of one horizon.

    Row k stores the values the sweep computed at stage k, a window that
    starts ``starts[k]`` cells into the band |score| <= min(k, horizon - k),
    the scores the match can still reach with an undecided result. Every
    score below the window reads -1 and every one above it +1: the band
    cells there are frozen at exactly that value, and a score outside the
    band reads sign(score), as either the result is forced or the score is
    impossible this late in the match.
    """

    horizon: int
    evaluations: int
    rows: list = field(repr=False)
    starts: list = field(repr=False)

    def value(self, games_remaining: int, score: int) -> float:
        k, x = _lattice_point(games_remaining, score)
        # the window holds score 0, so a score outside the band also lies
        # outside the window, on the side of its sign
        i = x + _band(self.horizon, k, abs(x), 0) - self.starts[k]
        row = self.rows[k]
        return -1.0 if i < 0 else float(row[i]) if i < len(row) else 1.0

    @property
    def gain(self) -> float:
        return self.value(self.horizon, 0)

    def _expanded_row(self, k: int) -> np.ndarray:
        """The values of the whole band at stage k."""
        band = _band(self.horizon, k, 0, 0)
        return _expanded(self.rows[k], self.starts[k], band, -1.0, 1.0)


@dataclass(frozen=True)
class PolicyTable:
    """Optimal actions on the same lattice, ties resolved toward defense.

    Row k - 1 stores the offense bits of the window the sweep computed at
    stage k, which starts ``starts[k]`` cells into the band. A band cell below
    the window plays ``low_bit`` and one above it ``high_bit``, the bits of a
    cell frozen at -1 and at +1. Every query outside the band returns defense
    by convention, the choice there cannot change the match result.
    """

    horizon: int
    rows: list = field(repr=False)
    starts: list = field(repr=False)
    low_bit: bool
    high_bit: bool

    def action(self, games_remaining: int, score: int) -> Action:
        k, x = _lattice_point(games_remaining, score)
        band = _band(self.horizon, k, abs(x), 1)
        if abs(x) > band:
            return Action.DEF
        i = x + band - self.starts[k]
        row = self.rows[k - 1]
        bit = self.low_bit if i < 0 else row[i] if i < len(row) else self.high_bit
        return Action.OFF if bit else Action.DEF

    def _flips(self, k: int, band: int) -> list[int]:
        """The scores x, ascending, where stage k's style differs from that at x - 1.

        The style is defense below the band, ``low_bit`` below the window,
        the window's bits, ``high_bit`` above the window and defense above
        the band; a side with no frozen run takes the window's end bit, so
        it adds no flip.
        """
        row, start = self.rows[k - 1], self.starts[k]
        end = start + len(row)  # one past the window, in band cells
        first, last = bool(row[0]), bool(row[-1])
        low = bool(self.low_bit) if start else first
        high = bool(self.high_bit) if end <= 2 * band else last
        # window cell i holds the style of score start - band + i
        inside = (np.flatnonzero(row[1:] != row[:-1]) + (start - band + 1)).tolist()
        # into the band, onto the window, the window's own, off it, out of the band
        into = [-band] * low + [start - band] * (low != first)
        out = [end - band] * (high != last) + [band + 1] * high
        return into + inside + out

    def offense_mask(self, games_remaining: int, scores: np.ndarray) -> np.ndarray:
        """Vectorised ``action(...) is Action.OFF`` over a 1-D array of integer scores.

        A solved row is a few runs of one style, so the mask is read from the
        flips in (min, max] of the scores: ``(scores >= f1) ^ (scores >= f2)
        ^ ...``, negated when the style at the smallest score is offense. That
        is three passes over the scores (their max, min and first comparison)
        plus two a further flip, and O(window) work on the row. A row with
        more than ``_MAX_MASK_FLIPS`` flips in range is read through one
        lookup row over [-largest, largest] for the largest |score| instead,
        with one ``take``: four passes plus O(largest) work on the row. Both
        return the same bits.
        """
        k, _ = _lattice_point(games_remaining, 0)
        scores = _score_row(scores)
        # the extremes as Python ints: np.abs and + wrap at a narrow dtype's edge
        least, most = int(scores.min(initial=0)), int(scores.max(initial=0))
        largest = max(most, -least)
        band = _band(self.horizon, k, largest, 1)
        flips = self._flips(k, band)
        # the style at ``least`` is offense after an odd count of flips
        below, stop = bisect.bisect_right(flips, least), bisect.bisect_right(flips, most)
        if stop - below <= _MAX_MASK_FLIPS:
            if below == stop:
                return np.full(scores.shape, below % 2 == 1)
            # Python ints compare in the scores' own dtype, and every flip in
            # range lies in it
            mask = scores < flips[below] if below % 2 else scores >= flips[below]
            for x in flips[below + 1 : stop]:
                mask ^= scores >= x
            return mask
        row, start = self.rows[k - 1], self.starts[k]
        if len(row) <= 2 * band:
            # a window narrower than the band: the frozen sides' bits on its
            # ends, where ``take`` clips every index beyond them
            row, start = np.concatenate(([self.low_bit], row, [self.high_bit])), start - 1
        present = np.arange(-largest, largest + 1)
        lookup = (np.abs(present) <= band) & (row.take(present + (band - start), mode="clip") != 0)
        return lookup.take(np.add(scores, largest, dtype=np.intp))

    def _expanded_row(self, k: int) -> np.ndarray:
        """The offense bits of the whole band at stage k."""
        band = _band(self.horizon, k, 0, 1)
        return _expanded(self.rows[k - 1], self.starts[k], band, self.low_bit, self.high_bit)


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
        """(horizon, gain) pairs of one label; a label not in the curve raises ``InvalidPolicy``."""
        if not (isinstance(label, str) and label in self.gains):
            raise InvalidPolicy(f"no curve labelled {label!r}; have {list(self.gains)}")
        return list(zip(self.horizons.tolist(), map(float, self.gains[label])))


def solve(spec: MatchSpec, n_games: int) -> SolveResult:
    """Optimal value and policy tables for an ``n_games`` match.

    Returns (values, policy, gain) with gain = values.value(n_games, 0).
    The tables keep the window the sweep computed at each stage, 9 bytes a
    cell (a float64 value and a uint8 policy bit). For a spec that never
    freezes a cell at -1 or +1, a fair non-safe defense say, every window is
    the whole undecided band, about N^2 / 2 cells or 1700 MB at N = 20,000;
    the weak player's long matches freeze most of it, and the CHESS spec of
    ``verify`` keeps 9.7% at that horizon, a 205 MB peak. So the budget is
    ``DEFAULT_TABLE_HORIZON_BUDGET``, 20,000 stages, read at call time; raise
    it knowingly, as the change holds for the whole process.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games, DEFAULT_TABLE_HORIZON_BUDGET)
    sweep = _bellman_sweep(spec, n, tables=True)
    return SolveResult(sweep.values, sweep.policy, float(sweep.gains[n]))


def gain_curve(spec: MatchSpec, n_max: int, policies: Iterable[str] = ("optimal",)) -> GainCurve:
    """Gains of the requested policies for every horizon 1..n_max.

    Labels: "optimal" (one backward sweep serves all horizons), "cat" and
    "catplus" (exact forward evaluation of the protect-the-lead policies),
    "off" and "def" (fixed styles via convolution); a bare string, bytes or
    bytearray is one label. Each route is one pass for every horizon: "cat"
    and "catplus" share one walk of the (never led, has led) pair, whose
    layers are interleaved by score so one stencil call steps both, and
    "off" and "def" take one single-layer walk each (see ``analytic.walk``
    for the layout and its +0 invariant). The "off" and "def" gains depend
    on ``n_max`` in their last bit, as ``analytic.fixed_style_gain_curve``
    sums each stage over the full width 2 * n_max + 1: they can differ by an
    ulp from per-horizon evaluation, which the "cat" and "catplus" gains
    equal bit for bit. Value-only memory, so every route is held to
    ``analytic.DEFAULT_VALUE_HORIZON_BUDGET``, 100,000 stages, read at call
    time.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_max, analytic.DEFAULT_VALUE_HORIZON_BUDGET)
    # a bare string or bytes, a 0-d array, None or another non-iterable is one label
    single = isinstance(policies, (str, bytes, bytearray)) or not isinstance(policies, Iterable)
    labels = [policies] if single or getattr(policies, "ndim", None) == 0 else list(policies)
    if not labels:
        raise InvalidPolicy(f"no policy labels given; choose from {POLICY_LABELS}")
    # a label that is not a string, a list say, is unknown, not a TypeError
    unknown = [x for x in labels if not (isinstance(x, str) and x in POLICY_LABELS)]
    if unknown:
        raise InvalidPolicy(f"unknown policy labels {unknown}; choose from {POLICY_LABELS}")
    curves: dict[str, np.ndarray] = {}
    if "optimal" in labels:
        curves["optimal"] = _bellman_sweep(spec, n).gains[1:]
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


def find_optimal_horizon(spec: MatchSpec, n_max: int) -> HorizonResult:
    """Horizon in 1..n_max with the largest optimal gain, smallest on ties."""
    require_instance(spec, MatchSpec)
    n = require_horizon(n_max, analytic.DEFAULT_VALUE_HORIZON_BUDGET)
    gains = _bellman_sweep(spec, n).gains
    best_n = int(np.argmax(gains[1:])) + 1  # argmax keeps the first maximum
    return HorizonResult(best_n, float(gains[best_n]))
