"""Property tests on generated specs.

The Bellman sweep is checked byte for byte against a per-cell Python
reference of the same recursion, and the solver against the exhaustive
oracle on short-decimal specs. Examples are derandomized, so every run draws
the same specs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchplay import MatchSpec, brute_force_optimal, solve
from matchplay.dp import _bellman_sweep

EXACT_TOL = 1e-12

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

unit = st.floats(0.0, 1.0)


@st.composite
def specs(draw):
    """Any valid spec, with fair and sure-draw defenses and fair offenses mixed in.

    ``slack`` lets both draw probabilities overshoot a unit sum by less than
    the spec tolerance; with a style that never loses (or never wins) a value
    then rounds past +-1 and the sweep's clamp decides the stored bits.
    """
    slack = draw(st.sampled_from((0.0, 4e-13)))
    pd = draw(st.floats(0.0, 0.5))
    pw = (1.0 - pd) / 2 if draw(st.booleans()) else (1.0 - pd) * draw(unit)
    defense = draw(st.sampled_from(("any", "fair", "sure_draw")))
    if defense == "sure_draw":
        qw, qd = 0.0, 1.0
    else:
        qd = pd + (1.0 - pd) * draw(unit)
        qw = (1.0 - qd) / 2 if defense == "fair" else (1.0 - qd) * draw(unit)
    pl, ql = 1.0 - pd - pw, 1.0 - qd - qw
    qd = qd + slack if qd + slack <= 1.0 else qd
    return MatchSpec.from_probs(pw, pd + slack, pl, qw, qd, ql)


@st.composite
def short_decimal_specs(draw):
    """Specs in whole hundredths, which the integer oracle takes exactly."""
    pw, pd = draw(st.integers(0, 100)), draw(st.integers(0, 100))
    pd = min(pd, 100 - pw)
    qd = draw(st.integers(pd, 100))
    qw = draw(st.integers(0, 100 - qd))
    return MatchSpec.from_probs(
        pw / 100, pd / 100, (100 - pw - pd) / 100, qw / 100, qd / 100, (100 - qd - qw) / 100
    )


def reference_sweep(spec: MatchSpec, n_max: int, prune: bool):
    """The Bellman recursion one cell at a time in plain Python floats.

    Same association, ``(w*up + l*down) + d*mid``, and same clamp as the
    sweep; returns (gains, value rows, policy rows, evaluations).
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


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@PROPERTY_SETTINGS
@given(spec=specs(), n=st.integers(1, 40))
def test_sweep_matches_the_per_cell_reference_bit_for_bit(prune, spec, n):
    gains, value_rows, policy_rows, evaluations = reference_sweep(spec, n, prune)
    curve = _bellman_sweep(spec, n, prune=prune)
    tables = _bellman_sweep(spec, n, prune=prune, tables=True)
    for sweep in (curve, tables):
        assert sweep.gains.tobytes() == np.array(gains).tobytes()
        assert sweep.evaluations == evaluations
    assert len(tables.value_rows) == len(value_rows) == n + 1
    for got, want in zip(tables.value_rows, value_rows):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
    assert len(tables.policy_rows) == len(policy_rows) == n
    for got, want in zip(tables.policy_rows, policy_rows):
        assert got.dtype == np.uint8
        assert got.tobytes() == np.array(want, dtype=np.uint8).tobytes()


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(spec=short_decimal_specs(), n=st.integers(1, 4))
def test_solver_matches_the_exhaustive_oracle(spec, n):
    assert abs(solve(spec, n).gain - brute_force_optimal(spec, n)) <= EXACT_TOL
