"""Tests for the Monte Carlo evaluator: determinism, partitioning, accuracy."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from matchplay import (
    InvalidSampleCount,
    InvalidSeed,
    Policy,
    cat_plus_policy,
    cat_policy,
    estimate_gain,
    exact_policy_gain,
    fixed_policy,
    simulate_match,
    solve,
    table_policy,
)
from matchplay.sim import _final_signs, _round_words, _threshold

from conftest import fresh_python, make_spec, reference_final_signs


# specs whose thresholds sit at the ends of the word range: a sure-win
# offense, a defense that never wins, a sure-draw defense, and a defense
# whose win + draw rounds to 1 + 2**-52 in floats
EDGE_PROBS = (
    (1.0, 0.0, 0.0, 0.10, 0.75, 0.15),
    (0.45, 0.0, 0.55, 0.0, 0.75, 0.25),
    (0.45, 0.0, 0.55, 0.0, 1.0, 0.0),
    (0.45, 0.0, 0.55, 0.1, 0.9000000000000001, 0.0),
)


class Int8Mask(Policy):
    """Offense while level or behind before the first lead, as an int8 0/1 mask."""

    def decide_row(self, games_remaining, scores, has_led):
        return ((np.asarray(scores) <= 0) & (not has_led)).astype(np.int8)


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

    def test_a_generator_stream_keys_the_match_by_its_state(self, chess):
        # the key is 16 bytes drawn from the generator, read little-endian
        for seed in range(20):
            got = simulate_match(chess, cat_policy(), 9, np.random.default_rng(seed))
            assert got == simulate_match(chess, cat_policy(), 9, np.random.default_rng(seed))
            key = int.from_bytes(np.random.default_rng(seed).bytes(16), "little")
            assert got == simulate_match(chess, cat_policy(), 9, key)

    def test_seed_validated(self, chess):
        for bad in (-1, True, np.bool_(False), 1.5, math.inf, "3"):
            with pytest.raises(InvalidSeed):
                simulate_match(chess, "off", 3, bad)
        # the Philox key range, as estimate_gain checks it
        with pytest.raises(InvalidSeed):
            simulate_match(chess, "off", 3, 2**200)

    @pytest.mark.parametrize("key", [0, 1, 2**64, 2**128 - 1])
    def test_a_match_is_sample_zero_of_the_rounds(self, chess, key):
        policies = (
            fixed_policy("Off"),
            cat_policy(),
            cat_plus_policy(chess),
            table_policy(solve(chess, 16).policy),
            lambda k, x, led: "Off" if x <= 0 else "Def",
        )
        for policy in policies:
            for n in (1, 9, 16):
                sign = simulate_match(chess, policy, n, key)
                assert sign == estimate_gain(chess, policy, n, 1, key).mean
                assert sign == reference_final_signs(chess, policy, n, 1, key)[0]

    def test_sure_draw_defense_locks_the_score(self):
        spec = make_spec(0.3, 0.0, 0.7, 0.0, 1.0, 0.0)
        assert simulate_match(spec, "def", 10, 0) == 0


class TestRoundStreams:
    def test_round_uniforms_equal_the_jumped_substreams(self):
        # rounds 2**64 - 1 and 2**64 cross the carry between counter words 2
        # and 3; they run out of order on one generator and one state dict,
        # and 13 draws leave its output buffer part used, so a stale buffer
        # would show; offsets 4 and 200_001 start a whole block and one value
        # into a far block; the words scaled by 2**-53 are the uniforms
        for key in (0, 2**64, 2**128 - 1):
            bitgen = np.random.Philox(key=key)
            state = bitgen.state
            for round_index in (2**64, 1, 2**64 - 1, 0, 2**64, 0, 1):
                for offset in (0, 7, 4, 200_001):
                    got = _round_words(bitgen, state, round_index, 13, offset) * 2.0**-53
                    jumped = np.random.Philox(key=key).jumped(round_index)
                    want = np.random.Generator(jumped).random(offset + 13)[offset:]
                    assert got.tobytes() == want.tobytes(), (key, round_index, offset)


class TestThresholds:
    @pytest.mark.parametrize(
        "p", [0.0, 2.0**-53, 0.1, 0.45, 0.5, 1 - 2.0**-53, 1.0, 1 + 2.0**-52]
    )
    def test_words_around_the_threshold_classify_as_the_float_rule(self, p):
        # a word's uniform is (word >> 11) * 2**-53, exact in a double; words
        # that shift to T - 1, T and T + 1 and to both ends of the range, each
        # with its low 11 bits, which the shift drops, clear and set
        t = int(_threshold(p))
        shifted = [m for m in (0, t - 1, t, t + 1, 2**53 - 1) if 0 <= m < 2**53]
        raw = [m << 11 | low for m in shifted for low in (0, 2**11 - 1)]
        words = np.array(raw, dtype=np.uint64)
        words >>= np.uint64(11)
        uniforms = [m * 2.0**-53 for m in words.tolist()]
        assert (words < _threshold(p)).tolist() == [u < p for u in uniforms]
        assert (words >= _threshold(p)).tolist() == [not u < p for u in uniforms]


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

    def test_sample_count_beyond_memory_is_refused(self, chess):
        # numpy refuses an array this large before touching any memory; the
        # scores of a two-game match take one int8 byte a sample
        with pytest.raises(InvalidSampleCount, match=f"{2**62} bytes for one int8 score array"):
            estimate_gain(chess, "off", 2, 2**62)

    def test_rounds_beyond_memory_are_refused(self):
        # a child process caps its address space 256 MiB above its size: the
        # 100 MB of int8 scores fit, a round's 800 MB of Philox words do not
        pytest.importorskip("resource")
        if not os.path.exists("/proc/self/status"):
            pytest.skip("the child reads its address-space size from /proc/self/status")
        out = fresh_python(
            """
import resource
from matchplay import InvalidSampleCount, estimate_gain
from matchplay.cli import main
from matchplay.verify import CHESS
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = size + 256 * 2**20
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
try:
    estimate_gain(CHESS, "Off", 2, 10**8)
except InvalidSampleCount as exc:
    print(exc)
flags = "--pw 0.45 --pd 0 --pl 0.55 --qw 0.10 --qd 0.75 --ql 0.15".split()
print(main(["simulate", *flags, "--horizon", "2", "--policy", "off", "--samples", "100000000"]))
"""
        )
        refusal, code = out.splitlines()
        assert refusal.startswith("100000000 samples need 800000000 bytes")
        assert code == "2"

    def test_vector_path_agrees_with_scalar_replay(self, chess, grind):
        # byte for byte against one match at a time through the scalar decide
        def chase(games_remaining, score, has_led):
            return "off" if score < 0 or (score == 0 and games_remaining > 2) else "def"

        n, count = 9, 300
        for spec in (chess, grind, *(make_spec(*probs) for probs in EDGE_PROBS)):
            table = table_policy(solve(spec, n).policy)
            catplus = cat_plus_policy(spec)
            for policy in ("off", "Def", cat_policy(), catplus, table, chase, Int8Mask()):
                for offset in (0, 37):
                    got = _final_signs(spec, policy, n, count, seed=21, offset=offset)
                    want = reference_final_signs(spec, policy, n, count, 21, offset)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (policy, offset)

    @pytest.mark.parametrize("n", [127, 128])
    def test_scores_reaching_the_int8_edge_replay_exactly(self, n):
        # up to 127 games the scores are int8; a sure win or loss reaches
        # +-127 there and +-128 one game later, where they must be int16
        for probs in ((1.0, 0.0, 0.0, 0.10, 0.75, 0.15), (0.0, 0.0, 1.0, 0.0, 1.0, 0.0)):
            spec = make_spec(*probs)
            table = table_policy(solve(spec, n).policy)
            for policy in ("off", cat_policy(), cat_plus_policy(spec), table):
                got = _final_signs(spec, policy, n, 40, seed=3, offset=2)
                want = reference_final_signs(spec, policy, n, 40, 3, 2)
                assert got.dtype == want.dtype == np.int64
                assert got.tobytes() == want.tobytes(), (probs, policy)
        sure_win = make_spec(1.0, 0.0, 0.0, 0.1, 0.75, 0.15)
        assert _final_signs(sure_win, "off", n, 5, seed=0).tolist() == [1] * 5

    def test_callable_is_called_once_per_distinct_score(self, chess):
        calls = []

        def chase(games_remaining, score, has_led):
            calls.append((games_remaining, score, has_led))
            return "off" if score <= 0 else "def"

        n, count = 8, 5_000
        signs = _final_signs(chess, chase, n, count, seed=4)
        assert len(calls) == len(set(calls))
        # after t games at most 2t + 1 scores are present, each asked with and without a lead
        assert len(calls) <= 2 * sum(2 * t + 1 for t in range(n))
        assert signs.tobytes() == reference_final_signs(chess, chase, n, count, 4).tobytes()
