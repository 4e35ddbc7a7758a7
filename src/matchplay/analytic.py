"""Closed-form match probabilities for fixed styles and long-match limits.

Two independent routes compute the distribution of the final score when every
game is played in the same style: the trinomial closed form, conditioned on
the number of decisive games so that a horizon costs O(N) lgamma terms, and a
stage-by-stage convolution of the one-game step. The redundancy is
deliberate, the test suite plays the routes against each other.

One kernel, ``stencil``, computes the one-game expectation
``(w*win_from + l*loss_from) + d*stay_from`` for both directions: the Bellman
sweep in ``dp`` applies it backward, to the values one score up, level and
one score down, and ``walk``, the package's one forward loop, applies it
forward, to the mass one score down, level and one score up. The walk's
caller passes two styles and an offense rule, ``policies.offense_row``'s
contract: one bool for a stage's band, or a bool mask over it. The fixed
styles here pass their style as both and a rule that is always True, and
every policy evaluation in ``policies`` passes the policy's offense rule;
the walk picks each cell's coefficients. A walk's layers (one, or the
never-led and has-led pair) are interleaved by score in one row per
parity, so one stencil call steps them all, through row views made once
per block of stages, up to ``_BLOCK_STAGES - 1`` cells wider than its band
on each side, with the coefficients read from rows interleaved the same way
(a lone layer in one style passes its scalars instead). Outside the band
the mass is exact +0 and every coefficient finite and at least +0, so those
cells stay +0 and the bits are those of stepping each layer's band alone.

``fixed_style_gain_curve`` reads each stage's gain as ``sign_expectation``
does, with the same bits, but sums the stages in blocks of rows, a few numpy
calls per block rather than two per stage. The protect-the-lead curves in
``policies`` cannot: their band grows by a cell on each side every stage,
and neither a segmented ``np.add.reduceat`` nor a tail sum shared by the two
rules keeps the pairwise summation order, and so the bits, of a per-stage
sum; they take each stage's two sums directly instead, with no guard per
call.

The long-match limits (``hitting_probability``, ``cat_limit``,
``optimal_limit`` and their ``Regime`` and ``AsymptoticVerdict`` types) are
plain float arithmetic and live in ``core``, which needs no numpy; this module
re-exports them under the same names.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (  # noqa: F401  the limits are re-exported from core
    AsymptoticVerdict,
    Regime,
    StyleDistribution,
    cat_limit,
    hitting_probability,
    optimal_limit,
    require_instance,
)
from .errors import InvalidState, require_horizon, require_integer

# horizon budget of every value-only computation (curves, exact evaluation)
# here and in dp and policies: memory and time grow with the horizon, so a
# call past it raises before any work. Every route reads this one name at
# call time, so raising it is process-wide
DEFAULT_VALUE_HORIZON_BUDGET = 100_000

# stages per block of walk's row views: a larger block steps more zero cells
# past each band, a smaller one slices more often; 8, 16, 32, 64 and 128
# timed within noise of each other at 50 to 800 games
_BLOCK_STAGES = 32

# bytes of the scratch block of stage rows that fixed_style_gain_curve sums
# at once: 16 rows at 1000 games, at least one row however long the match
_SIGN_BLOCK_BYTES = 256 * 1024


def sign_expectation(mass: np.ndarray, center: int) -> float:
    """Expected sign of the score for a mass vector centered at score 0.

    The negative tail is summed in mirrored order (score -1, -2, ...) so that
    a bitwise symmetric distribution yields exactly 0.0. Rounding can carry a
    sure result an ulp past +-1, so the result is clamped to [-1, 1].
    ``mass`` must be one-dimensional and ``center`` must index it, or
    ``InvalidState`` is raised, as it is for a mass that is not real numbers
    or whose two sums are not finite.
    The curves take these sums without the guard: ``fixed_style_gain_curve``
    in blocks of stages, the protect-the-lead curves once a stage.
    """
    mass = np.asarray(mass)
    if mass.ndim != 1 or mass.dtype.kind not in "biuf":
        raise InvalidState(
            f"mass must be one-dimensional real numbers, got shape {mass.shape} "
            f"and dtype {mass.dtype}"
        )
    rule = f"center must be an integer in [0, {len(mass)})"
    center = require_integer(center, InvalidState, rule, 0, len(mass))
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper;
    # at center 0 no score lies below 0, and the reversed slice would wrap
    below = float(np.add.reduce(mass[center - 1 :: -1])) if center else 0.0
    gain = float(np.add.reduce(mass[center + 1 :])) - below
    if not math.isfinite(gain):
        raise InvalidState(f"mass must be finite, got a gain of {gain}")
    if gain > 1.0:
        return 1.0
    if gain < -1.0:
        return -1.0
    return gain


def _stencil():
    # np.multiply and np.add as closure cells: the sweep calls the kernel twice
    # a stage, and reading them as attributes of np made those two calls about
    # 10% slower on 57-cell rows
    multiply, add = np.multiply, np.add

    def stencil(win_from, stay_from, loss_from, w, d, l, out, tmp):
        """One game of the stencil, ``out = (w*win_from + l*loss_from) + d*stay_from``.

        Gather form, into rows the caller owns: ``win_from`` holds, for each
        cell of ``out``, the value a win moves in, ``loss_from`` the value a
        loss moves in and ``stay_from`` the value a draw keeps, with ``tmp``
        as scratch of ``out``'s shape. The first product overwrites every cell
        of ``out``, so it may hold anything before the call. The Bellman sweep
        passes the values one score up as ``win_from``, the forward walk the
        mass one score down. Coefficients are 0-d or arrays of ``out``'s shape.
        Five ufunc calls, no allocation.
        """
        # (win + loss) + stay: this association makes the stencil exactly
        # antisymmetric for fair styles, in both directions
        multiply(win_from, w, out)
        multiply(loss_from, l, tmp)
        add(out, tmp, out)
        multiply(stay_from, d, tmp)
        add(out, tmp, out)

    return stencil


stencil = _stencil()


def style_coefficients(style: StyleDistribution) -> tuple:
    """The (win, draw, loss) of ``style`` as 0-d arrays, for ``stencil``.

    0-d arrays, not Python floats: a ufunc converts a Python scalar anew on
    every call, which is a measurable share of a short stage.
    """
    return tuple(map(np.array, (style.win, style.draw, style.loss)))


def walk(n: int, offense: StyleDistribution, defense: StyleDistribution, rule, flagged=False):
    """Yield the mass layers after 0..n games of an ``n``-game match.

    ``rule(games_remaining, band, has_led)`` is the offense rule over the
    scores ``band`` reachable at that stage in the layer that ``has_led``
    names, as ``policies.offense_row`` returns it: one plain ``bool`` for a
    band that plays ``offense`` (True) or ``defense`` (False) throughout, or
    a bool mask of the band's shape, a style per cell. ``band`` is a view of
    a read-only row. With ``flagged`` the layers are (never led, has led),
    and a path moves to the second layer the first time its score turns
    positive; otherwise a single layer carries all the mass and ``has_led``
    is False. Layers have width 2n + 1 and are centred at n.

    The yielded layers are views of rows the walk reuses, strided when there
    are two: a stage's rows are overwritten two stages later, so a caller
    that keeps a stage must copy it, and a caller must not write to them.

    The layers share one row per parity, interleaved by score: with L
    layers, layer l at score x sits at ``(x + n + 1) * L + l``, and each
    layer has a guard cell past either end of its yielded width. So a stage
    is one ``stencil`` call for every layer, in gather form, through views
    made once per block of ``_BLOCK_STAGES`` stages, as slicing costs as
    much as the cells at a few hundred games. The views span the output band
    of the block's last stage, and the mass one score down and one score up
    of it. The coefficients lie in three rows interleaved the same way, at
    their source cells, and the stencil reads them through the block's views
    of those rows: the win row one score down, the draw row level, the loss
    row one score up. A layer whose row is one bool keeps that style's (win,
    draw, loss) in all its slots and rewrites them only when its style
    changes; a mask writes each cell's style over the layer's band alone. A
    lone layer in one style passes its 0-d coefficients to the stencil
    instead, which multiply faster than a row once the band spans thousands
    of cells, with the same bits.

    The invariant is +0 mass outside a stage's band (the rows start at zero
    and the bands only grow) and finite coefficients of at least +0
    everywhere (``StyleDistribution`` stores a -0.0 probability as +0.0). A
    cell stepped from +0 mass is ``(w*0 + l*0) + d*0 = +0``, and a band edge
    adds +0 terms to a value at least +0, which keeps its bits. So a wider
    view writes the band's bits inside it and +0 outside it, those of
    stepping each layer's band alone, and keeps the invariant.
    """
    scores = np.arange(-n, n + 1)
    scores.flags.writeable = False
    count, c = 1 + flagged, n + 1
    layers = tuple(enumerate((False, True)[:count]))
    off, dfn = style_coefficients(offense), style_coefficients(defense)
    # each style's (win, draw, loss) as a column, so one np.where picks all three
    off_col, dfn_col = np.array([off, dfn]).reshape(2, 3, 1)
    # two mass rows, which swap roles every stage, and a scratch row; the
    # yielded views of each layer are made once
    *sets, tmp = np.zeros((3, (2 * n + 3) * count))
    yielded = [[row[count + i : (2 * n + 2) * count : count] for i, _ in layers] for row in sets]
    cells = np.zeros((3, (2 * n + 3) * count))  # win, draw and loss at their source cells
    slots = [cells[:, i::count] for i, _ in layers]
    held = [None] * count  # the bool whose style fills each layer's slots, None after a mask
    sets[0][c * count] = 1.0
    yield yielded[0]
    for first in range(0, n, _BLOCK_STAGES):
        # the output band of the block's last stage, and its sources one
        # score down and one up
        t = min(first + _BLOCK_STAGES, n)
        lo, mid, hi = (slice((c - t + k) * count, (c + t + 1 + k) * count) for k in (-1, 0, 1))
        # one set of views per parity: a stage's source row is the last one's output
        block = [(a[lo], a[mid], a[hi], b[mid]) for a, b in (sets, sets[::-1])]
        rows, flow = (cells[0, lo], cells[1, mid], cells[2, hi]), tmp[mid]
        for played in range(first, t):
            remaining, band = n - played, scores[n - played : n + played + 1]
            for i, led in layers:
                attack = rule(remaining, band, led)
                if type(attack) is not bool:
                    slots[i][:, c - played : c + played + 1] = np.where(attack, off_col, dfn_col)
                    held[i] = None
                elif attack != held[i]:
                    slots[i][...] = off_col if attack else dfn_col
                    held[i] = attack
            coefs = rows if flagged or held[0] is None else (off if held[0] else dfn)
            win_from, stay_from, loss_from, out = block[played % 2]
            stencil(win_from, stay_from, loss_from, *coefs, out, flow)
            if flagged:
                # a never-led path can only reach +1 from 0, so one cell moves
                # layers: from index 0 of score +1's pair to index 1
                row = sets[(played + 1) % 2]
                row[2 * c + 3] += row[2 * c + 2]
                row[2 * c + 2] = 0.0
            yield yielded[(played + 1) % 2]


def _log_powers(prob: float, n: int) -> np.ndarray:
    """k * log(prob) for k = 0..n, with 0 * log(0) = 0 so that 0^0 counts as 1.

    A zero probability raised to a positive count is -inf, an exact 0 after exp.
    """
    if prob > 0.0:
        return np.arange(n + 1) * math.log(prob)
    logs = np.full(n + 1, -np.inf)
    logs[0] = 0.0
    return logs


def _decisive_games(style: StyleDistribution, n: int):
    """The trinomial conditioned on D, the number of decisive games of ``n``.

    D is Bin(N, r) with r = win + loss, and given D = m the wins are
    Bin(m, q) with q = win / r. Returns three rows over m = 0..N: P(D = m),
    the median term b_m(ceil(m/2)) of Bin(m, q), and T_m = P(Bin(m, q) > m/2),
    with T_0 = 0. Each probability is one lgamma expression. T_N is a direct
    sum over its winning counts; every other T_m is stepped back from it by
    the median terms, T_2j = T_2j+1 - q*b_2j(j) and T_2j+1 = T_2j+2 +
    (1 - q)*b_2j+1(j+1), in one cumulative sum from the far end, which keeps
    the relative accuracy of a tail that decays in m.
    """
    lf = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # log k! for k = 0..N

    def binomial(m, k, hit, miss):
        # C(m, k) hit^k miss^(m - k), over index arrays with k <= m <= N
        log_c = lf[m] - lf[k] - lf[m - k]
        return np.exp(log_c + (_log_powers(hit, n)[k] + _log_powers(miss, n)[m - k]))

    decisive = style.win + style.loss
    # a sure draw plays no decisive game: P(D = 0) = 1 weighs only T_0 = 0 and
    # b_0(0) = 1, so its split of (0, 0) never reaches a result
    win, loss = (style.win / decisive, style.loss / decisive) if decisive else (0.0, 0.0)
    m = np.arange(n + 1)
    weights = binomial(n, m, decisive, style.draw)
    medians = binomial(m, (m + 1) // 2, win, loss)
    steps = medians * np.where(m % 2, loss, -win)  # T_m - T_m+1 for m < N
    steps[n] = np.add.reduce(binomial(n, m[n // 2 + 1 :], win, loss))  # T_N
    tails = np.cumsum(steps[::-1])[::-1]
    tails[0] = 0.0
    return weights, medians, tails


def fixed_style_positive_prob(style: StyleDistribution, n_games: int) -> float:
    """Probability that the final score is positive under a single style.

    Sums the trinomial mass over outcomes with more wins than losses by
    conditioning on the number of decisive games, sum over m of
    P(D = m) * P(Bin(m, q) > m/2), in O(N) terms (see ``_decisive_games``).
    Against the convolution route the relative error measured 1.1e-11 to
    2.6e-11 at 10,000 games on the first five ``verify`` offenses and
    defenses and their mirrors; lgamma's rounding, up to 3 ulps there, sets
    it. 0^0 counts as 1.
    """
    require_instance(style, StyleDistribution)
    n = require_horizon(n_games, DEFAULT_VALUE_HORIZON_BUDGET)
    weights, _, tails = _decisive_games(style, n)
    return min(float(np.add.reduce(weights * tails)), 1.0)


def fixed_style_draw_prob(style: StyleDistribution, n_games: int) -> float:
    """Probability that the final score is exactly zero under a single style."""
    require_instance(style, StyleDistribution)
    n = require_horizon(n_games, DEFAULT_VALUE_HORIZON_BUDGET)
    weights, medians, _ = _decisive_games(style, n)
    # j wins and j losses: the even decisive counts 2j, at their median j
    return min(float(np.add.reduce(weights[::2] * medians[::2])), 1.0)


def fixed_style_gain(style: StyleDistribution, n_games: int) -> float:
    """Expected sign of the final score when every game uses ``style``.

    Equals the positive-score probability of the style minus that of its
    mirror image, so a fair style scores exactly zero.
    """
    n = require_horizon(n_games, DEFAULT_VALUE_HORIZON_BUDGET)
    return fixed_style_positive_prob(style, n) - fixed_style_positive_prob(style.mirror(), n)


def score_distribution(style: StyleDistribution, n_games: int) -> np.ndarray:
    """Distribution of the final score via repeated one-game convolution.

    Returns a vector of length 2N + 1 indexed by score + N. Redundant with
    the trinomial sum on purpose; the two routes cross-check each other.
    """
    require_instance(style, StyleDistribution)
    n = require_horizon(n_games, DEFAULT_VALUE_HORIZON_BUDGET)
    for (mass,) in walk(n, style, style, lambda *_: True):
        pass
    # the walk reuses its rows; a copy owns its memory
    return mass.copy()


def fixed_style_gain_curve(style: StyleDistribution, n_max: int) -> np.ndarray:
    """Expected final-score sign for every match length 1..n_max, in one pass.

    Each stage's gain is ``sign_expectation`` of its mass, with the same
    bits, but the stages are summed in blocks: every stage's row is copied
    into a scratch block of ``_SIGN_BLOCK_BYTES``, and one reduce along the
    rows sums a whole block's positive scores, another its mirrored negative
    ones. Reducing a C-contiguous block along its last axis runs numpy's
    pairwise summation on each row exactly as the reduce of that row alone
    does, so a block costs a few numpy calls however many stages it holds.

    Every stage is summed over the full width 2 * n_max + 1, so a gain
    depends on ``n_max`` in its last bit: the horizon-h gain can differ by
    an ulp from ``exact_policy_gain`` at h, or from a curve to h, which sum
    a row of 2h + 1 cells.
    """
    require_instance(style, StyleDistribution)
    n = require_horizon(n_max, DEFAULT_VALUE_HORIZON_BUDGET)
    stages = walk(n, style, style, lambda *_: True)
    next(stages)  # the start, before any game
    gains = np.empty(n)
    rows = min(n, max(1, _SIGN_BLOCK_BYTES // (8 * (2 * n + 1))))
    block, below = np.zeros((rows, 2 * n + 1)), np.empty(rows)
    for first in range(0, n, rows):
        count = min(rows, n - first)
        # the walk reuses its rows, so each stage is copied as it passes:
        # only its band [-played, played], as every cell past it holds a zero
        # from the start or from an earlier, narrower band; the full width is
        # summed on purpose, as a band-only sum changes the pairwise
        # summation order and with it the last bits
        for played, row in enumerate(block[:count], first + 1):
            (mass,) = next(stages)
            row[n - played : n + played + 1] = mass[n - played : n + played + 1]
        gain = gains[first : first + count]
        np.add.reduce(block[:count, n + 1 :], axis=1, out=gain)
        np.add.reduce(block[:count, n - 1 :: -1], axis=1, out=below[:count])
        np.subtract(gain, below[:count], out=gain)
    # rounding can carry a sure result an ulp past +-1
    return np.clip(gains, -1.0, 1.0, out=gains)
