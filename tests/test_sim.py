"""Tests for the Monte Carlo evaluator: determinism, partitioning, accuracy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from matchplay import (
    InvalidSampleCount,
    InvalidSeed,
    cat_policy,
    estimate_gain,
    exact_policy_gain,
    fixed_policy,
    simulate_match,
    solve,
    table_policy,
)
from matchplay.sim import _final_signs

from conftest import make_spec


class TestSimulateMatch:
    def test_returns_a_sign(self, chess):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert simulate_match(chess, cat_policy(), 6, rng) in (-1, 0, 1)

    def test_seed_reproducible(self, chess):
        a = [simulate_match(chess, cat_policy(), 9, seed) for seed in range(30)]
        b = [simulate_match(chess, cat_policy(), 9, seed) for seed in range(30)]
        assert a == b

    def test_accepts_generator_and_none(self, chess):
        assert simulate_match(chess, "off", 3, np.random.default_rng(1)) in (-1, 0, 1)
        assert simulate_match(chess, "off", 3, None) in (-1, 0, 1)

    def test_seed_validated(self, chess):
        for bad in (-1, True, np.bool_(False), 1.5, math.inf, "3"):
            with pytest.raises(InvalidSeed):
                simulate_match(chess, "off", 3, bad)
        # beyond the Philox key range that estimate_gain needs, numpy still seeds
        assert simulate_match(chess, "off", 3, 2**200) in (-1, 0, 1)

    def test_sure_draw_defense_locks_the_score(self):
        spec = make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0)
        assert simulate_match(spec, "def", 10, 0) == 0


class TestEstimateGain:
    def test_deterministic_per_seed(self, chess):
        a = estimate_gain(chess, cat_policy(), 8, 2_000, seed=5)
        b = estimate_gain(chess, cat_policy(), 8, 2_000, seed=5)
        assert a == b
        c = estimate_gain(chess, cat_policy(), 8, 2_000, seed=6)
        assert c.mean != a.mean or c.std_error != a.std_error

    def test_partition_stable(self, chess):
        # sample i's outcome must not depend on batching: the first 1000 of a
        # 3000-sample run equal a standalone 1000-sample run, and the rest
        # can be produced separately via the offset
        full = _final_signs(chess, cat_policy(), 7, 3_000, seed=3)
        head = _final_signs(chess, cat_policy(), 7, 1_000, seed=3)
        tail = _final_signs(chess, cat_policy(), 7, 2_000, seed=3, offset=1_000)
        assert np.array_equal(full, np.concatenate([head, tail]))

    def test_metadata(self, chess):
        est = estimate_gain(chess, "off", 2, 500, seed=9)
        assert est.samples == 500 and est.seed == 9

    def test_single_sample_has_nan_error(self, chess):
        est = estimate_gain(chess, "off", 2, 1, seed=4)
        assert est.mean in (-1.0, 0.0, 1.0)
        assert math.isnan(est.std_error)

    def test_sample_count_validated(self, chess):
        for bad in (0, -10, 2.5, True, np.True_, None, "many", math.inf):
            with pytest.raises(InvalidSampleCount):
                estimate_gain(chess, "off", 2, bad)

    @pytest.mark.parametrize(
        "bad",
        [True, np.bool_(False), 1.5, -1, 2**128, math.inf, math.nan, "3", None],
        ids=["bool", "numpy_bool", "fraction", "negative", "2**128", "inf", "nan", "str", "none"],
    )
    def test_seed_validated(self, chess, bad):
        with pytest.raises(InvalidSeed):
            estimate_gain(chess, "off", 2, 10, seed=bad)

    def test_seed_range_ends_and_numpy_integers_accepted(self, chess):
        for seed in (0, 2**128 - 1, np.int64(5), np.uint64(5)):
            est = estimate_gain(chess, "off", 2, 10, seed=seed)
            assert est.seed == seed and type(est.seed) is int
        assert estimate_gain(chess, "off", 2, 10, seed=np.int64(5)) == estimate_gain(
            chess, "off", 2, 10, seed=5
        )

    def test_degenerate_policy_has_zero_error(self):
        spec = make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0)
        est = estimate_gain(spec, "def", 6, 1_000, seed=2)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_matches_exact_gain_for_benchmarks(self, chess):
        for policy in (fixed_policy("off"), cat_policy()):
            exact = exact_policy_gain(chess, policy, 6)
            est = estimate_gain(chess, policy, 6, 40_000, seed=11)
            assert abs(est.mean - exact) <= 5.0 * est.std_error

    def test_matches_solver_for_the_optimal_table(self, chess):
        result = solve(chess, 5)
        est = estimate_gain(chess, table_policy(result.policy), 5, 40_000, seed=13)
        assert abs(est.mean - result.gain) <= 5.0 * est.std_error

    def test_vector_path_agrees_with_scalar_replay(self, chess):
        # the batched evaluator and the one-match scalar path must see the
        # same decision rule; compare distributions loosely via the mean
        n, count = 4, 4_000
        signs = _final_signs(chess, cat_policy(), n, count, seed=21)
        scalar_mean = float(np.mean(signs))
        exact = exact_policy_gain(chess, cat_policy(), n)
        assert abs(scalar_mean - exact) <= 0.05
