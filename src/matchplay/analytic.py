"""Closed-form match probabilities for fixed styles and long-match limits.

Two independent routes compute the distribution of the final score when every
game is played in the same style: a direct trinomial sum over (wins, losses)
counts and a stage-by-stage convolution of the one-game step. The redundancy
is deliberate, the test suite plays the routes against each other.

The convolution is ``walk``, the package's one forward loop and the only
caller of the stencil ``step``. Its caller chooses each stage's coefficients:
the fixed styles here pass constants, and every policy evaluation in
``policies`` runs through the same walk.

The long-match limits (``hitting_probability``, ``cat_limit``,
``optimal_limit`` and their ``Regime`` and ``AsymptoticVerdict`` types) are
plain float arithmetic and live in ``core``, which needs no numpy; this module
re-exports them under the same names.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (  # noqa: F401  the limits are re-exported from core
    AsymptoticVerdict,
    Regime,
    StyleDistribution,
    cat_limit,
    hitting_probability,
    optimal_limit,
    require_instance,
)
from .errors import require_horizon

# horizon budget of every value-only computation (curves, exact evaluation):
# memory and time grow with the horizon, so a call past it raises before any
# work unless its ``max_horizon`` says otherwise
DEFAULT_VALUE_HORIZON_BUDGET = 100_000

# terms per block of the trinomial sum: enough rows to amortise the numpy
# calls at a few hundred games, while the scratch block stays at 64 KB
_BLOCK_TERMS = 8192


def sign_expectation(mass: np.ndarray, center: int) -> float:
    """Expected sign of the score for a mass vector centered at score 0.

    The negative tail is summed in mirrored order (score -1, -2, ...) so that
    a bitwise symmetric distribution yields exactly 0.0. Rounding can carry a
    sure result an ulp past +-1, so the result is clamped to [-1, 1].
    """
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper
    gain = float(np.add.reduce(mass[center + 1 :])) - float(np.add.reduce(mass[center - 1 :: -1]))
    if gain > 1.0:
        return 1.0
    if gain < -1.0:
        return -1.0
    return gain


def step(mass: np.ndarray, games_played: int, w, d, l, out: np.ndarray, tmp: np.ndarray):
    """Write the centred score distribution ``mass`` one game later into ``out``.

    After t = ``games_played`` games only the band [-t, t] holds mass, so only
    it is read and only [-t-1, t+1] is written; the cells skipped would add
    exact zeros. ``out`` must hold zeros outside [-t-1, t+1], as the row two
    stages back does (its band is [-t+1, t-1]), and ``tmp`` is scratch of at
    least 2t + 1 cells; no array is allocated. Coefficients are scalars or
    arrays over the band.
    """
    c, t = len(mass) // 2, games_played
    src = mass[c - t : c + t + 1]
    flow = tmp[: 2 * t + 1]
    # (win flow + loss flow) + stay flow: this association keeps the
    # distribution bitwise symmetric for fair styles
    np.multiply(src, w, out=out[c - t + 1 : c + t + 2])
    out[c - t - 1] = out[c - t] = 0.0
    below = out[c - t - 1 : c + t]
    np.multiply(src, l, out=flow)
    np.add(below, flow, out=below)
    level = out[c - t : c + t + 1]
    np.multiply(src, d, out=flow)
    np.add(level, flow, out=level)


def style_coefficients(style: StyleDistribution) -> tuple:
    """The (win, draw, loss) of ``style`` as 0-d arrays, for ``step`` and the sweep.

    0-d arrays, not Python floats: a ufunc converts a Python scalar anew on
    every call, which is a measurable share of a short stage.
    """
    return tuple(map(np.array, (style.win, style.draw, style.loss)))


def walk(n: int, coefficients, flagged: bool = False):
    """Yield the mass layers after 0..n games of an ``n``-game match.

    ``coefficients(games_remaining, band, has_led)`` returns the (win, draw,
    loss) of the scores ``band`` reachable at that stage, each a scalar or an
    array over the band. With ``flagged`` the layers are (never led, has led),
    and a path moves to the second layer the first time its score turns
    positive; otherwise a single layer carries all the mass and ``has_led``
    is False. Layers have width 2n + 1 and are centred at n.

    The yielded rows are reused: each layer alternates between two rows, so
    a stage's rows are overwritten two stages later, and a caller that keeps
    a stage must copy it.
    """
    scores = np.arange(-n, n + 1)
    count = 1 + flagged
    # row views made once: iterating a 2-D array would make new ones each stage
    rows = list(np.zeros((2 * count + 1, 2 * n + 1)))
    layers, spare, tmp = rows[:count], rows[count:-1], rows[-1]
    layers[0][n] = 1.0
    yield layers
    for played in range(n):
        remaining, band = n - played, scores[n - played : n + played + 1]
        # one expression per layer: no name keeps the coefficients alive into
        # the next layer, so numpy reuses their buffers instead of parking one
        # more per size in its small-array cache
        for led, layer, out in zip((False, True), layers, spare):
            step(layer, played, *coefficients(remaining, band, led), out, tmp)
        layers, spare = spare, layers
        if flagged:
            # a never-led path can only reach +1 from 0, so one cell moves layers
            not_led, led = layers
            led[n + 1] += not_led[n + 1]
            not_led[n + 1] = 0.0
        yield layers


def _log_factorials(n: int) -> np.ndarray:
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


def _log_powers(prob: float, n: int) -> np.ndarray:
    """k * log(prob) for k = 0..n, with 0 * log(0) = 0 so that 0^0 counts as 1.

    A zero probability raised to a positive count is -inf, an exact 0 after exp.
    """
    if prob > 0.0:
        return np.arange(n + 1) * math.log(prob)
    logs = np.full(n + 1, -np.inf)
    logs[0] = 0.0
    return logs


def _trinomial_logs(style: StyleDistribution, n: int):
    """Log factors of the trinomial term, each a vector over 0..N.

    The log of C(N, i) * C(N - i, j) * win^i * loss^j * draw^(N - i - j) is
    ``wins[i] + losses[j] + draws[i + j]``: ``draws`` is indexed by the number
    of decisive games, so both sums below read it forward and contiguously.
    """
    lf = _log_factorials(n)
    wins = (lf[n] - lf) + _log_powers(style.win, n)
    losses = _log_powers(style.loss, n) - lf
    draws = (_log_powers(style.draw, n) - lf)[::-1].copy()
    return wins, losses, draws


def fixed_style_positive_prob(
    style: StyleDistribution, n_games: int, *, max_horizon: int | None = None
) -> float:
    """Probability that the final score is positive under a single style.

    Sums the trinomial mass over outcomes with more wins than losses,

        sum over i > j >= 0, i + j <= N of
            C(N, i) * C(N - i, j) * win^i * loss^j * draw^(N - i - j).

    Coefficients go through a log-factorial table rather than factorials.
    Against the convolution route the relative error measured 1.1e-11 to
    1.3e-11 at 10,000 games on five styles. 0^0 counts as 1.

    The terms are summed in 2-D blocks of at most ``_BLOCK_TERMS`` terms (or
    one row, if longer): row j of a block holds j losses and the wins
    j + 1, j + 2, ..., so a block costs a few numpy calls however many rows
    it has. Each block spans only the longest valid row it holds, which
    keeps it close to the triangle of valid (i, j).
    """
    require_instance(style, StyleDistribution)
    n = require_horizon(n_games, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    wins, losses, draws = _trinomial_logs(style, n)
    # row j reads wins from j + 1 and draws from 2j + 1 decisive games on;
    # past N decisive games the draw factor is -inf, an exact 0 after exp,
    # which ends every row at i + j = N
    win_rows = sliding_window_view(np.concatenate((wins, np.zeros(n))), n)
    draw_rows = sliding_window_view(np.concatenate((draws, np.full(n, -np.inf))), n)
    scratch = np.empty(max(_BLOCK_TERMS, n))
    total = 0.0
    first, rows = 0, (n + 1) // 2  # losses j = 0..(N - 1) // 2 leave a win to spare
    while first < rows:
        width = n - 2 * first  # wins j + 1..N - j of the block's first row
        last = min(rows, first + max(1, _BLOCK_TERMS // width))
        block = scratch[: (last - first) * width].reshape(last - first, width)
        draws_from = draw_rows[2 * first + 1 : 2 * last : 2, :width]
        # (losses + draws) + wins, one term's association in every block
        np.add(losses[first:last, None], draws_from, out=block)
        np.add(block, win_rows[first + 1 : last + 1, :width], out=block)
        terms = scratch[: block.size]
        np.exp(terms, out=terms)
        total += float(np.add.reduce(terms))
        first = last
    return min(total, 1.0)


def fixed_style_draw_prob(
    style: StyleDistribution, n_games: int, *, max_horizon: int | None = None
) -> float:
    """Probability that the final score is exactly zero under a single style."""
    require_instance(style, StyleDistribution)
    n = require_horizon(n_games, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    wins, losses, draws = _trinomial_logs(style, n)
    half = n // 2 + 1
    # i wins and i losses, so 2i decisive games, for i = 0..N//2
    log_terms = wins[:half] + losses[:half] + draws[::2]
    return min(float(np.exp(log_terms).sum()), 1.0)


def fixed_style_gain(
    style: StyleDistribution, n_games: int, *, max_horizon: int | None = None
) -> float:
    """Expected sign of the final score when every game uses ``style``.

    Equals the positive-score probability of the style minus that of its
    mirror image, so a fair style scores exactly zero.
    """
    n = require_horizon(n_games, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    # a raised budget reaches the inner calls; left unset, they keep the
    # two-argument form that bench/tracer.py counts their work from
    budget = {} if max_horizon is None else {"max_horizon": max_horizon}
    positive = fixed_style_positive_prob(style, n, **budget)
    return positive - fixed_style_positive_prob(style.mirror(), n, **budget)


def score_distribution(
    style: StyleDistribution, n_games: int, *, max_horizon: int | None = None
) -> np.ndarray:
    """Distribution of the final score via repeated one-game convolution.

    Returns a vector of length 2N + 1 indexed by score + N. Redundant with
    the trinomial sum on purpose; the two routes cross-check each other.
    """
    require_instance(style, StyleDistribution)
    n = require_horizon(n_games, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    coefficients = style_coefficients(style)
    for (mass,) in walk(n, lambda *_: coefficients):
        pass
    # the walk reuses its rows; a copy owns its memory
    return mass.copy()


def fixed_style_gain_curve(
    style: StyleDistribution, n_max: int, *, max_horizon: int | None = None
) -> np.ndarray:
    """Expected final-score sign for every match length 1..n_max, in one pass."""
    require_instance(style, StyleDistribution)
    n = require_horizon(n_max, max_horizon, DEFAULT_VALUE_HORIZON_BUDGET)
    coefficients = style_coefficients(style)
    stages = walk(n, lambda *_: coefficients)
    next(stages)  # the start, before any game
    # the full width is summed on purpose: a band-only sum changes the
    # pairwise summation order and with it the last bits
    return np.fromiter((sign_expectation(mass, n) for (mass,) in stages), float, n)
