"""Shared fixtures: reference match specs, three reference Bellman sweeps
and the full-band rows of a solved table, an allocating forward stencil and
the walk through it, a one-sample-at-a-time Monte Carlo replay, and a
fresh-interpreter runner."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import matchplay
from matchplay import Action, MatchSpec
from matchplay.policies import _ORACLE_SCALE, _scaled_probs, as_policy

# the running two-game example: a clearly losing offense against a drawish
# defense, where switching styles still forces a positive expected sign
CHESS_PROBS = (0.45, 0.0, 0.55, 0.10, 0.75, 0.15)

# near-parity offense against a heavily drawish defense; its optimal gain
# peaks at an interior horizon
GRIND_PROBS = (0.49, 0.0, 0.51, 0.02, 0.95, 0.03)

# two close defense variants with different optimal match lengths: the
# first peaks at a four-game match, the second at six
CURVE_PEAK4_PROBS = (0.43, 0.0, 0.57, 0.06, 0.84, 0.10)
CURVE_PEAK6_PROBS = (0.43, 0.0, 0.57, 0.06, 0.86, 0.08)


def make_spec(pw, pd, pl, qw, qd, ql) -> MatchSpec:
    return MatchSpec.from_probs(pw, pd, pl, qw, qd, ql)


def fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this matchplay."""
    src = Path(matchplay.__file__).resolve().parents[1]
    paths = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def reference_sweep(spec: MatchSpec, n_max: int, prune: bool):
    """The Bellman recursion one cell at a time in plain Python floats.

    Same association, ``(w*up + l*down) + d*mid``, and same clamp as
    ``dp._bellman_sweep``; returns (gains, value rows, policy rows,
    evaluations). With ``prune`` stage k evaluates the undecided band
    |score| <= min(k, n_max - k), as the sweep does; without it, the full
    reachable triangle |score| <= n_max - k, of which only the undecided band
    is kept. Both modes must reproduce the sweep's bits.
    """
    pw, pd, pl = spec.offense.win, spec.offense.draw, spec.offense.loss
    qw, qd, ql = spec.defense.win, spec.defense.draw, spec.defense.loss
    center = n_max + 1
    buf = [float((x > 0) - (x < 0)) for x in range(-center, center + 1)]
    gains, value_rows, policy_rows, evaluations = [0.0], [[0.0]], [], 0
    for k in range(1, n_max + 1):
        keep = min(k, n_max - k)
        band = keep if prune else n_max - k
        off, dfn = {}, {}
        for x in range(-band, band + 1):
            up, mid, down = buf[center + x + 1], buf[center + x], buf[center + x - 1]
            off[x] = (pw * up + pl * down) + pd * mid
            dfn[x] = (qw * up + ql * down) + qd * mid
            evaluations += 1
        kept = range(-keep, keep + 1)
        row = [max(min(max(off[x], dfn[x]), 1.0), -1.0) for x in kept]
        buf[center - keep : center + keep + 1] = row
        value_rows.append(row)
        policy_rows.append([off[x] > dfn[x] for x in kept])
        gains.append(buf[center])
    return gains, value_rows, policy_rows, evaluations


def band_reference(spec: MatchSpec, n_max: int):
    """The banded recursion in numpy, every stage over its whole band.

    Same association and band as ``dp._bellman_sweep``, but no frontier: each
    stage computes every cell of |score| <= min(k, n_max - k) into fresh
    arrays and always clamps both sides with ``np.clip``. Returns (gains,
    value rows, policy rows, evaluations) as ``reference_sweep`` does, with
    the rows as float64 and uint8 arrays.
    """
    (pw, pd, pl), (qw, qd, ql) = ((s.win, s.draw, s.loss) for s in (spec.offense, spec.defense))
    center = n_max + 1
    buf = np.sign(np.arange(-center, center + 1)).astype(np.float64)
    gains, value_rows, policy_rows, evaluations = [0.0], [np.zeros(1)], [], 0
    for k in range(1, n_max + 1):
        band = min(k, n_max - k)
        lo, hi = center - band, center + band + 1
        up, mid, down = buf[lo + 1 : hi + 1], buf[lo:hi], buf[lo - 1 : hi - 1]
        off = (pw * up + pl * down) + pd * mid
        dfn = (qw * up + ql * down) + qd * mid
        row = np.clip(np.maximum(off, dfn), -1.0, 1.0)
        buf = buf.copy()
        buf[lo:hi] = row
        value_rows.append(row)
        policy_rows.append((off > dfn).astype(np.uint8))
        gains.append(row[band])
        evaluations += 2 * band + 1
    return np.array(gains), value_rows, policy_rows, evaluations


def expanded_rows(result) -> tuple[list, list]:
    """The full-band value rows (stages 0..N) and policy rows (1..N) of a solve."""
    values, policy = result.values, result.policy
    n = values.horizon
    return (
        [values._expanded_row(k) for k in range(n + 1)],
        [policy._expanded_row(k) for k in range(1, n + 1)],
    )


def exact_bellman_gains(spec: MatchSpec, n_max: int) -> list[Fraction]:
    """Exact optimal gains for horizons 0..n_max, by the recursion in integers.

    Probabilities must be whole millionths, as for the enumeration oracle.
    With k games left a value is an integer weight over ``_ORACLE_SCALE**k``,
    so the maximum over styles is taken exactly. Stage k keeps the undecided
    band |score| <= min(k, n_max - k), as the sweep does.
    """
    styles = (_scaled_probs(spec.offense), _scaled_probs(spec.defense))
    row, scale = {0: 0}, 1  # the last stage's band, as weights over scale
    gains = [Fraction(0)]
    for k in range(1, n_max + 1):
        for x in (k, k + 1):  # with k - 1 games left these scores keep their sign
            row[x], row[-x] = scale, -scale
        band = min(k, n_max - k)
        row = {
            x: max(w * row[x + 1] + l * row[x - 1] + d * row[x] for w, d, l in styles)
            for x in range(-band, band + 1)
        }
        scale *= _ORACLE_SCALE
        gains.append(Fraction(row[0], scale))
    return gains


def reference_step(mass: np.ndarray, games_played: int, w, d, l) -> np.ndarray:
    """The centred score distribution ``mass`` one game later, as a new array.

    The allocating form of ``analytic.step``: same band, same association
    ``(win flow + loss flow) + stay flow``, and a fresh zero row per stage
    instead of a reused one.
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


def reference_stages(spec: MatchSpec, policy, n_games: int, flagged: bool = True) -> list:
    """Mass layers after 0..n games through ``reference_step``, each stage a new array.

    With ``flagged`` a stage is (never led, has led), as ``propagate_policy``
    stores it; otherwise one layer. Every cell gets its own coefficient from
    the policy's offense mask, where the walk passes scalars for a uniform
    band; a product with the same factor has the same bits either way.
    """
    policy = as_policy(policy)
    n = n_games
    scores = np.arange(-n, n + 1)
    off, dfn = spec.offense, spec.defense
    layers = [np.zeros(2 * n + 1) for _ in range(1 + flagged)]
    layers[0][n] = 1.0
    stages = [np.stack(layers)]
    for played in range(n):
        band = scores[n - played : n + played + 1]
        stepped = []
        for led, layer in zip((False, True), layers):
            offense = np.asarray(policy.decide_row(n - played, band, led), dtype=bool)
            w, d, l = (
                np.where(offense, a, b)
                for a, b in zip((off.win, off.draw, off.loss), (dfn.win, dfn.draw, dfn.loss))
            )
            stepped.append(reference_step(layer, played, w, d, l))
        layers = stepped
        if flagged:
            not_led, led = layers
            led[n + 1] += not_led[n + 1]
            not_led[n + 1] = 0.0
        stages.append(np.stack(layers))
    return stages


def reference_final_signs(spec: MatchSpec, policy, n_games: int, samples: int, seed: int, offset=0):
    """Final score signs of samples [offset, offset + samples), one match at a time.

    Round r draws the uniforms of ``Philox(key=seed).jumped(r)`` and sample i
    takes the i-th of them, as ``sim._final_signs`` does; each game asks the
    scalar ``policy.decide`` for a style and scores it by the rule "win if
    u < w, else draw if u < w + d, else loss" in Python floats.
    """
    policy = as_policy(policy)
    uniforms = []
    for r in range(n_games):
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(r))
        uniforms.append(gen.random(offset + samples)[offset:].tolist())
    signs = []
    for i in range(samples):
        score, led = 0, False
        for played in range(n_games):
            action = policy.decide(n_games - played, score, led)
            style = spec.offense if action is Action.OFF else spec.defense
            u = uniforms[played][i]
            if u < style.win:
                score += 1
            elif not u < style.win + style.draw:
                score -= 1
            led = led or score >= 1
        signs.append((score > 0) - (score < 0))
    return np.array(signs, dtype=np.int64)


@pytest.fixture(scope="session")
def chess() -> MatchSpec:
    return make_spec(*CHESS_PROBS)


@pytest.fixture(scope="session")
def grind() -> MatchSpec:
    return make_spec(*GRIND_PROBS)


@pytest.fixture(scope="session")
def curve_peak4() -> MatchSpec:
    return make_spec(*CURVE_PEAK4_PROBS)


@pytest.fixture(scope="session")
def curve_peak6() -> MatchSpec:
    return make_spec(*CURVE_PEAK6_PROBS)
