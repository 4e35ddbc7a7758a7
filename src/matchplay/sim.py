"""Monte Carlo validation of policy gains with reproducible streams.

Randomness comes from the counter-based Philox generator: round r of every
match draws from the substream ``Philox(key=seed).jumped(r)``, and sample i
consumes the i-th value of that substream. A sample's outcome therefore
depends only on (seed, sample index, round index), so estimates are
reproducible bit-for-bit regardless of how samples are batched or
partitioned across workers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import Action, MatchSpec
from .errors import InvalidSampleCount, InvalidSeed, require_horizon, require_integer, require_seed
from .policies import as_policy


class SimEstimate(NamedTuple):
    """Estimated gain with its standard error and the run that produced it."""

    mean: float
    std_error: float
    samples: int
    seed: int


def simulate_match(spec: MatchSpec, policy, n_games: int, stream=None) -> int:
    """Play one match and return the sign of the final score.

    ``stream`` may be a numpy Generator, a non-negative integer seed, or None
    for fresh entropy.
    """
    n = require_horizon(n_games)
    policy = as_policy(policy)
    if isinstance(stream, np.random.Generator):
        rng = stream
    else:
        rng = np.random.default_rng(None if stream is None else require_seed(stream))
    offense, defense = spec.offense, spec.defense
    score = 0
    has_led = False
    for played in range(n):
        action = policy.decide(n - played, score, has_led)
        style = offense if action is Action.OFF else defense
        u = rng.random()
        if u < style.win:
            score += 1
        elif u < style.win + style.draw:
            pass
        else:
            score -= 1
        has_led = has_led or score >= 1
    return (score > 0) - (score < 0)


def _round_uniforms(seed: int, round_index: int, count: int, offset: int = 0) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(round_index))
    return gen.random(offset + count)[offset:]


def _final_signs(
    spec: MatchSpec,
    policy,
    n_games: int,
    samples: int,
    seed: int,
    offset: int = 0,
) -> np.ndarray:
    """Final score signs of samples [offset, offset + samples) for this seed."""
    policy = as_policy(policy)
    off_w, off_d = spec.offense.win, spec.offense.draw
    def_w, def_d = spec.defense.win, spec.defense.draw
    scores = np.zeros(samples, dtype=np.int64)
    has_led = np.zeros(samples, dtype=bool)
    for played in range(n_games):
        remaining = n_games - played
        if policy.uses_lead_flag:
            mask_fresh = policy.decide_row(remaining, scores, False)
            mask_led = policy.decide_row(remaining, scores, True)
            offense_mask = np.where(has_led, mask_led, mask_fresh)
        else:
            offense_mask = policy.decide_row(remaining, scores, False)
        win = np.where(offense_mask, off_w, def_w)
        win_or_draw = win + np.where(offense_mask, off_d, def_d)
        u = _round_uniforms(seed, played, samples, offset)
        # fixed comparison order: win first, then draw
        scores += np.where(u < win, 1, np.where(u < win_or_draw, 0, -1))
        has_led |= scores >= 1
    return np.sign(scores)


def estimate_gain(
    spec: MatchSpec,
    policy,
    n_games: int,
    samples: int,
    seed: int = 0,
) -> SimEstimate:
    """Monte Carlo estimate of a policy's gain from ``samples`` matches.

    Deterministic given (seed, samples, horizon, spec, policy); sample i's
    outcome does not depend on how many other samples are drawn. ``seed`` is
    the Philox key, an integer in [0, 2**128). The standard error uses the
    unbiased sample variance and is NaN for a single sample.
    """
    n = require_horizon(n_games)
    count = require_integer(samples, InvalidSampleCount, "sample count must be a positive integer")
    key = require_integer(seed, InvalidSeed, "seed must be an integer in [0, 2**128)", 0, 2**128)
    signs = _final_signs(spec, policy, n, count, key)
    npos = int((signs > 0).sum())
    nneg = int((signs < 0).sum())
    mean = (npos - nneg) / count
    if count == 1:
        std_error = math.nan
    else:
        # signs are in {-1, 0, 1}, so the sum of squares is just npos + nneg
        variance = max(0.0, (npos + nneg - count * mean * mean) / (count - 1))
        std_error = math.sqrt(variance / count)
    return SimEstimate(mean, std_error, count, key)
