"""Monte Carlo validation of policy gains with reproducible streams.

Randomness comes from the counter-based Philox generator: round r of every
match draws from the substream ``Philox(key=seed).jumped(r)``, and sample i
consumes the i-th value of that substream. A run keeps one keyed generator
and one copy of its state dict, and reaches round r's substream by setting
the dict's counter to the one ``jumped(r)`` returns (``[0, 0, r mod 2**64,
r >> 64]``, output buffer empty), without building a new generator or state
dict each round. Each counter step yields four values, so a slice starting
at sample ``offset`` sets counter word 0 to ``offset // 4`` and drops only
the first ``offset % 4`` values it draws, whatever the offset. A sample's
outcome therefore depends only on (seed, sample index, round index), so
estimates are reproducible bit-for-bit regardless of how samples are
batched or partitioned across workers.

Each round works on the raw Philox words. ``Generator.random`` returns
``(word >> 11) * 2**-53``, so with m = word >> 11, an integer below 2**53,
``u < p`` holds exactly when m < p * 2**53, that is when m < T for the
integer threshold T = ceil(p * 2**53): scaling by a power of two is exact in
floats, and m is an integer. This holds for every p, so p = 0 (T = 0, never
below) and p >= 1 (T >= 2**53, always below) need no special case. A sample
wins when its word is below the style's win threshold and loses when it is
not below the stay threshold, that of the sum win + draw formed in Python
floats as the one-match rule forms it; since the win threshold is at most
the stay threshold no sample does both, and the signs equal those of one
match replayed at a time on the uniforms (the tests pin this byte for
byte). Scores are held in the narrowest signed integer dtype that holds
+-N, int8 up to 127 games, and move by one int8 delta, win minus loss, per
round; the signs are returned as int64.

Each round is branch-free. The policy's offense mask selects between the
two styles' outcomes with boolean algebra, ``(mask & off) | (def & ~mask)``:
a comparison or a boolean ``&`` costs a few microseconds on a
20,000-sample row, where a ``np.where`` on a random mask costs over a
hundred. A row the policy plays in one style, returned as a plain bool,
compares the words against that style's two thresholds alone. The policy
reads the live scores through one read-only view, made once per call, so
a policy that writes to its row raises rather than moving the samples.

``simulate_match`` plays sample 0 of these rounds, so one match and
``estimate_gain`` follow one outcome rule. Its key is an integer seed in
[0, 2**128), checked as ``estimate_gain`` checks its seed; 16 bytes drawn
from a numpy Generator, read little-endian; or, for None, the 128-bit
entropy of a fresh ``np.random.SeedSequence``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import analytic
from .core import MatchSpec, require_instance
from .errors import InvalidSampleCount, InvalidSeed, require_horizon, require_integer
from .policies import as_policy, offense_row

_SEED_RULE = "seed must be an integer in [0, 2**128)"


class SimEstimate(NamedTuple):
    """Estimated gain with its standard error and the run that produced it."""

    mean: float
    std_error: float
    samples: int
    seed: int


def simulate_match(spec: MatchSpec, policy, n_games: int, stream=None) -> int:
    """Play one match and return the sign of the final score.

    The match is sample 0 of ``estimate_gain``'s rounds under one Philox
    key. ``stream`` is that key, an integer in [0, 2**128); or a numpy
    Generator, from which 16 bytes are drawn as the key, little-endian; or
    None for a fresh 128-bit key from ``np.random.SeedSequence``. The horizon
    is held to ``analytic.DEFAULT_VALUE_HORIZON_BUDGET``, read at call time.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games, analytic.DEFAULT_VALUE_HORIZON_BUDGET)
    if isinstance(stream, np.random.Generator):
        key = int.from_bytes(stream.bytes(16), "little")
    elif stream is None:
        key = np.random.SeedSequence().entropy
    else:
        key = require_integer(stream, InvalidSeed, _SEED_RULE, 0, 2**128)
    return int(_final_signs(spec, policy, n, 1, key)[0])


def _round_words(
    bitgen: np.random.Philox, state: dict, round_index: int, count: int, offset: int = 0
) -> np.ndarray:
    """Round ``round_index``'s words for samples [offset, offset + count), shifted to 53 bits.

    ``state`` is ``bitgen``'s state dict taken while its output buffer was
    empty, as a fresh generator's is; only its counter is rewritten. The
    words are the integers that ``Generator.random`` scales by 2**-53.
    """
    # the state Philox(key).jumped(round_index) reaches after the offset's
    # whole 4-value blocks: the round in counter words 2-3, the blocks in
    # word 0, and an empty output buffer, so no value left over from the
    # previous round is drawn
    state["state"]["counter"][:] = (offset // 4, 0, round_index % 2**64, round_index >> 64)
    bitgen.state = state
    skip = offset % 4
    words = bitgen.random_raw(skip + count)[skip:]
    words >>= np.uint64(11)
    return words


def _threshold(p: float) -> np.uint64:
    """The integer T with ``word < T`` exactly when ``word * 2**-53 < p``."""
    return np.uint64(math.ceil(p * 2**53))


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
    """Final score signs of samples [offset, offset + samples) for this seed.

    Any ``MemoryError`` in the rounds, one raised by the policy included, is
    reported as an ``InvalidSampleCount`` that names the count.
    """
    policy = as_policy(policy)
    off, dfn = spec.offense, spec.defense
    # a sample wins below the win threshold and stays (wins or draws) below
    # the stay threshold, built from the same IEEE sum win + draw that the
    # scalar rule "draw if u < win + draw" forms
    off_win, def_win = _threshold(off.win), _threshold(dfn.win)
    off_stay, def_stay = _threshold(off.win + off.draw), _threshold(dfn.win + dfn.draw)
    # the narrowest signed dtype that holds every score in [-N, N]
    dtype = np.min_scalar_type(-n_games - 1)
    try:
        scores = np.zeros(samples, dtype=dtype)
    except (MemoryError, ValueError):
        raise InvalidSampleCount(
            f"{samples} samples need {dtype.itemsize * samples} bytes for one {dtype} "
            "score array, more than can be allocated"
        ) from None
    # the policy reads the live scores through a read-only view of them
    rows = np.broadcast_to(scores, scores.shape)
    flagged = policy.uses_lead_flag
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state
    # one guard for every other per-sample array of the run: the lead flags,
    # the policy's rows, each round's words (8 bytes a sample) and bool masks,
    # and the signs
    try:
        has_led = np.zeros(samples, dtype=bool) if flagged else None
        for played in range(n_games):
            remaining = n_games - played
            offense = offense_row(policy, remaining, rows, False)
            if flagged:
                led = offense_row(policy, remaining, rows, True)
                if offense is True and led is False:
                    offense = ~has_led  # the protect-the-lead rule's row
                elif offense is not led:
                    offense = _pick(has_led, led, offense)
            words = _round_words(bitgen, state, played, samples, offset)
            # word < win implies word < stay, so a round never both wins and loses
            if type(offense) is bool:
                win, stay = (off_win, off_stay) if offense else (def_win, def_stay)
                won, lost = words < win, words >= stay
            else:
                won = _pick(offense, words < off_win, words < def_win)
                lost = _pick(offense, words >= off_stay, words >= def_stay)
            scores += won.view(np.int8) - lost.view(np.int8)
            if flagged:
                has_led |= scores >= 1
        return np.sign(scores, dtype=np.int64)
    except MemoryError:
        raise InvalidSampleCount(
            f"{samples} samples need {8 * samples} bytes for each round's words and "
            "for the final signs, more than can be allocated"
        ) from None


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
    unbiased sample variance and is NaN for a single sample. A run that
    cannot allocate its per-sample arrays raises ``InvalidSampleCount``, as
    does any ``MemoryError`` that the policy raises during the rounds. The
    horizon is held to ``analytic.DEFAULT_VALUE_HORIZON_BUDGET``, read at call
    time.
    """
    require_instance(spec, MatchSpec)
    n = require_horizon(n_games, analytic.DEFAULT_VALUE_HORIZON_BUDGET)
    count = require_integer(samples, InvalidSampleCount, "sample count must be a positive integer")
    key = require_integer(seed, InvalidSeed, _SEED_RULE, 0, 2**128)
    signs = _final_signs(spec, policy, n, count, key)
    # signs are in {-1, 0, 1}: their sum is wins minus losses and their
    # nonzero count, the sum of squares, is wins plus losses; neither read
    # allocates a per-sample mask
    mean = int(signs.sum()) / count
    if count == 1:
        std_error = math.nan
    else:
        decided = int(np.count_nonzero(signs))
        variance = max(0.0, (decided - count * mean * mean) / (count - 1))
        std_error = math.sqrt(variance / count)
    return SimEstimate(mean, std_error, count, key)
