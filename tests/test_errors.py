"""Tests for the shared integer guard, at the module that defines it."""

from __future__ import annotations

import math

import numpy as np
import pytest

from matchplay.errors import InvalidHorizon, require_integer

RULE = "count must be a positive integer"


@pytest.mark.parametrize(
    "good, want",
    [(3, 3), (3.0, 3), (np.int64(3), 3), (np.uint8(3), 3), (np.float64(3.0), 3), (np.array(3), 3)],
)
def test_integers_and_integral_numbers_pass_as_plain_ints(good, want):
    got = require_integer(good, InvalidHorizon, RULE)
    assert got == want and type(got) is int


@pytest.mark.parametrize(
    "bad",
    [True, False, np.bool_(True), np.True_, np.False_, np.array(True), np.array(False)],
    ids=["True", "False", "np.bool_", "np.True_", "np.False_", "0d-True", "0d-False"],
)
def test_python_and_numpy_bools_are_refused(bad):
    # np.array(True) == 1 holds, so only the dtype tells this one from an integer
    with pytest.raises(InvalidHorizon, match=f"^{RULE}, got "):
        require_integer(bad, InvalidHorizon, RULE, low=0)


@pytest.mark.parametrize("bad", [3.5, math.inf, math.nan, "3", None, np.float32(2.5)])
def test_non_integers_are_refused(bad):
    with pytest.raises(InvalidHorizon):
        require_integer(bad, InvalidHorizon, RULE)


def test_range_is_half_open():
    assert require_integer(0, InvalidHorizon, RULE, low=0, high=2) == 0
    for bad in (-1, 2):
        with pytest.raises(InvalidHorizon, match=f"got {bad}$"):
            require_integer(bad, InvalidHorizon, RULE, low=0, high=2)
