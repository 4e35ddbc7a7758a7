"""Monte Carlo validation of policy gains with reproducible streams.

Randomness comes from the counter-based Philox generator: round r of every
match draws from the substream ``Philox(key=seed).jumped(r)``, and sample i
consumes the i-th value of that substream. A run keeps one keyed generator
and reaches round r's substream by setting its state to the one ``jumped(r)``
returns (counter ``[0, 0, r mod 2**64, r >> 64]``, output buffer empty),
without building a new generator each round. Each counter step yields four
values, so a slice starting at sample ``offset`` sets counter word 0 to
``offset // 4`` and drops only the first ``offset % 4`` values it draws,
whatever the offset. A sample's outcome therefore
depends only on (seed, sample index, round index), so estimates are
reproducible bit-for-bit regardless of how samples are batched or
partitioned across workers.

Each round of the batched evaluator is branch-free. The policy's offense
mask selects between the two styles' outcomes with boolean algebra,
``(mask & off) | (def & ~mask)``, over comparisons of the uniforms with each
style's thresholds: a comparison or a boolean ``&`` costs a few microseconds
on a 20,000-sample row, where a ``np.where`` on a random mask costs over
a hundred. A sample wins when u < win and loses when u >= win + draw, the
sum formed in Python floats as the one-match rule forms it; since
u < win implies u < win + draw, no sample does both, and the signs equal
those of one match replayed at a time (the tests pin this byte for byte).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import Action, MatchSpec, require_instance
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
    require_instance(spec, MatchSpec)
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


def _round_uniforms(bitgen: np.random.Philox, round_index: int, count: int, offset: int = 0):
    # the state Philox(key).jumped(round_index) reaches after the offset's
    # whole 4-value blocks: the round in counter words 2-3, the blocks in
    # word 0, and an empty output buffer, so no value left over from the
    # previous round is drawn
    state = bitgen.state
    state["state"]["counter"][:] = (offset // 4, 0, round_index % 2**64, round_index >> 64)
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    bitgen.state = state
    skip = offset % 4
    return np.random.Generator(bitgen).random(skip + count)[skip:]


def _pick(mask: np.ndarray, if_true: np.ndarray, if_false: np.ndarray) -> np.ndarray:
    return (mask & if_true) | (if_false & ~mask)


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
    off_w, def_w = spec.offense.win, spec.defense.win
    # the same IEEE sums the scalar rule "draw if u < win + draw" forms
    off_wd, def_wd = off_w + spec.offense.draw, def_w + spec.defense.draw
    try:
        scores = np.zeros(samples, dtype=np.int64)
    except (MemoryError, ValueError):
        raise InvalidSampleCount(
            f"{samples} samples need {8 * samples} bytes for one score array, "
            "more than can be allocated"
        ) from None
    flagged = policy.uses_lead_flag
    has_led = np.zeros(samples, dtype=bool) if flagged else None
    bitgen = np.random.Philox(key=seed)
    for played in range(n_games):
        remaining = n_games - played
        offense = np.asarray(policy.decide_row(remaining, scores, False), dtype=bool)
        if flagged:
            led = np.asarray(policy.decide_row(remaining, scores, True), dtype=bool)
            offense = _pick(has_led, led, offense)
        u = _round_uniforms(bitgen, played, samples, offset)
        # u < win implies u < win + draw, so a round never both wins and loses
        scores += _pick(offense, u < off_w, u < def_w)
        scores -= _pick(offense, u >= off_wd, u >= def_wd)
        if flagged:
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
    require_instance(spec, MatchSpec)
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
