"""Closed-form match probabilities for fixed styles and long-match limits.

Two independent routes compute the distribution of the final score when every
game is played in the same style: a direct trinomial sum over (wins, losses)
counts and a stage-by-stage convolution of the one-game step. The redundancy
is deliberate, the test suite plays the routes against each other.

The module also provides the hitting probability of the score walk and the
long-match limits of the protect-the-lead policy and of optimal play, which
exist only in specific parameter regimes and are refused elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, xlogy

from .core import EQ_TOL, MatchSpec, StyleDistribution
from .errors import RegimeNotCovered, require_horizon


def sign_expectation(mass: np.ndarray, center: int) -> float:
    """Expected sign of the score for a mass vector centered at score 0.

    The negative tail is summed in mirrored order (score -1, -2, ...) so that
    a bitwise symmetric distribution yields exactly 0.0.
    """
    pos = float(mass[center + 1 :].sum())
    neg = float(mass[center - 1 :: -1].sum())
    return pos - neg


def step(mass: np.ndarray, games_played: int, w, d, l) -> np.ndarray:
    """The centred score distribution ``mass`` one game later, as a new array.

    After t = ``games_played`` games only the band [-t, t] holds mass, so only
    it is read and only [-t-1, t+1] is written; the cells skipped would add
    exact zeros. Coefficients are scalars or arrays over the band [-t, t].
    """
    width = len(mass)
    c, t = width // 2, games_played
    src = mass[c - t : c + t + 1]
    out = np.zeros(width)
    # (win flow + loss flow) + stay flow: this association keeps the
    # distribution bitwise symmetric for fair styles
    out[c - t + 1 : c + t + 2] = w * src
    below = out[c - t - 1 : c + t]
    below += l * src
    level = out[c - t : c + t + 1]
    level += d * src
    return out


def _log_factorials(n: int) -> np.ndarray:
    return gammaln(np.arange(n + 1) + 1.0)


def fixed_style_positive_prob(style: StyleDistribution, n_games: int) -> float:
    """Probability that the final score is positive under a single style.

    Sums the trinomial mass over outcomes with more wins than losses,

        sum over i > j >= 0, i + j <= N of
            C(N, i) * C(N - i, j) * win^i * loss^j * draw^(N - i - j).

    Coefficients go through a log-gamma table rather than factorials, which
    keeps the relative error near 1e-11 even for matches of 10,000 games.
    Zero probabilities are handled by xlogy, so 0^0 counts as 1.
    """
    n = require_horizon(n_games)
    lf = _log_factorials(n)
    lw = xlogy(1.0, style.win)  # log(win), -inf when win == 0
    total = 0.0
    for i in range(1, n + 1):
        j_max = min(i - 1, n - i)
        if j_max < 0:
            continue
        j = np.arange(j_max + 1)
        m = n - i - j
        log_terms = (
            lf[n] - lf[i] - lf[j] - lf[m]
            + i * lw
            + xlogy(j, style.loss)
            + xlogy(m, style.draw)
        )
        total += float(np.exp(log_terms).sum())
    return min(total, 1.0)


def fixed_style_draw_prob(style: StyleDistribution, n_games: int) -> float:
    """Probability that the final score is exactly zero under a single style."""
    n = require_horizon(n_games)
    lf = _log_factorials(n)
    i = np.arange(n // 2 + 1)
    m = n - 2 * i
    log_terms = (
        lf[n] - 2 * lf[i] - lf[m]
        + xlogy(i, style.win)
        + xlogy(i, style.loss)
        + xlogy(m, style.draw)
    )
    return min(float(np.exp(log_terms).sum()), 1.0)


def fixed_style_gain(style: StyleDistribution, n_games: int) -> float:
    """Expected sign of the final score when every game uses ``style``.

    Equals the positive-score probability of the style minus that of its
    mirror image, so a fair style scores exactly zero.
    """
    n = require_horizon(n_games)
    return fixed_style_positive_prob(style, n) - fixed_style_positive_prob(style.mirror(), n)


def _convolve_steps(style: StyleDistribution, n_games: int, record_gains: bool):
    n = n_games
    mass = np.zeros(2 * n + 1)
    mass[n] = 1.0
    gains = np.zeros(n) if record_gains else None
    for played in range(n):
        mass = step(mass, played, style.win, style.draw, style.loss)
        if record_gains:
            # the full width is summed on purpose: a band-only sum changes the
            # pairwise summation order and with it the last bits
            gains[played] = sign_expectation(mass, n)
    return mass, gains


def score_distribution(style: StyleDistribution, n_games: int) -> np.ndarray:
    """Distribution of the final score via repeated one-game convolution.

    Returns a vector of length 2N + 1 indexed by score + N. Redundant with
    the trinomial sum on purpose; the two routes cross-check each other.
    """
    n = require_horizon(n_games)
    mass, _ = _convolve_steps(style, n, record_gains=False)
    return mass


def fixed_style_gain_curve(style: StyleDistribution, n_max: int) -> np.ndarray:
    """Expected final-score sign for every match length 1..n_max, in one pass."""
    n = require_horizon(n_max)
    _, gains = _convolve_steps(style, n, record_gains=True)
    return gains


def hitting_probability(style: StyleDistribution) -> float:
    """Chance that the score walk driven by ``style`` ever reaches +1 from 0.

    Total by convention: 0 when the style never wins, 1 when it wins at least
    as often as it loses (or never loses while winning sometimes), and
    win/loss for the strictly losing case.
    """
    w, l = style.win, style.loss
    if w <= 0.0:
        return 0.0
    if l <= 0.0 or w >= l:
        return 1.0
    return w / l


class Regime(Enum):
    """Parameter regimes with a known long-match limit for optimal play."""

    BOTH_STRICTLY_LOSING = "both_strictly_losing"
    FAIR_NON_SAFE = "fair_non_safe"
    SAFE_DEFENSE = "safe_defense"


@dataclass(frozen=True)
class AsymptoticVerdict:
    """Long-match limits: the optimal one always, the protect-the-lead one when defined."""

    regime: Regime
    optimal_limit: float
    cat_limit: float | None


def cat_limit(spec: MatchSpec) -> float:
    """Limit of the protect-the-lead gain as the match length grows.

    Requires a weak player and a defense that is either a sure draw or fair.
    With hitting probability h of ever leading, the limit is 2h - 1 for a
    sure-draw defense (lead frozen forever) and h - 1 for a fair one (the
    post-switch walk ends positive or negative with equal chance).
    """
    cls = spec.classification
    if not cls.weak:
        raise RegimeNotCovered("no limit is derived unless the player is weak")
    if not (cls.safe_defense or cls.fair_non_safe):
        raise RegimeNotCovered("defense must be a sure draw or fair for this limit")
    offense = spec.offense
    if offense.win <= 0.0 and offense.loss <= 0.0:
        raise RegimeNotCovered("offense never moves the score, so the lead is never chased")
    h = hitting_probability(offense)
    return 2.0 * h - 1.0 if cls.safe_defense else h - 1.0


def optimal_limit(spec: MatchSpec) -> AsymptoticVerdict:
    """Long-match limit of the optimal gain, with the regime that justifies it.

    Covered regimes for a weak player with strictly losing offense:
    a strictly losing defense drives the gain to -1, a fair non-safe defense
    to 0, and a sure-draw defense to max(0, 2 * win/loss - 1). A fair offense
    or a non-weak player is refused rather than extrapolated.
    """
    cls = spec.classification
    if not cls.weak:
        raise RegimeNotCovered("no limit is derived unless the player is weak")
    offense = spec.offense
    if abs(offense.win - offense.loss) <= EQ_TOL:
        raise RegimeNotCovered("fair offense has no covered limit")
    if cls.safe_defense:
        chase = cat_limit(spec)
        return AsymptoticVerdict(Regime.SAFE_DEFENSE, max(0.0, chase), chase)
    if cls.fair_non_safe:
        return AsymptoticVerdict(Regime.FAIR_NON_SAFE, 0.0, cat_limit(spec))
    # weak with an unfair defense means the defense is strictly losing too
    return AsymptoticVerdict(Regime.BOTH_STRICTLY_LOSING, -1.0, None)
