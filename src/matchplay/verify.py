"""Self-contained verification checklist for the solver and the policies.

Every structural claim the package relies on is packed into one runnable
suite: regression anchors with hand-computable values, exact cross-checks
between independent computation routes, and randomized property checks over
generated parameter grids. ``run_checks`` returns one record per check; the
command-line ``verify`` subcommand prints them and sets the exit code.

All comparisons between two exact routes use absolute tolerance 1e-12; checks
against the closed-form trinomial formulas use 1e-10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic, dp, policies
from .core import (
    POLICY_LABELS,
    Action,
    MatchSpec,
    StyleDistribution,
    make_distribution,
    require_instance,
)
from .errors import InvalidOracleInput, InvalidSampleCount, require_integer, require_seed

EXACT_TOL = 1e-12
FORMULA_TOL = 1e-10

# fixed parameter grid: every spec exercised by the documented examples plus
# assorted edge cases (safe, fair, dominated, heavy-draw, no-draw, p = q)
SPEC_GRID = tuple(
    MatchSpec.from_probs(*row)
    for row in (
        (0.45, 0.0, 0.55, 0.10, 0.75, 0.15),
        (0.49, 0.0, 0.51, 0.02, 0.95, 0.03),
        (0.43, 0.0, 0.57, 0.06, 0.84, 0.10),
        (0.43, 0.0, 0.57, 0.06, 0.86, 0.08),
        (0.40, 0.0, 0.60, 0.15, 0.70, 0.15),
        (0.40, 0.0, 0.60, 0.10, 0.70, 0.20),
        (0.30, 0.0, 0.70, 0.00, 1.00, 0.00),
        (0.45, 0.0, 0.55, 0.00, 1.00, 0.00),
        (0.45, 0.0, 0.55, 0.10, 0.80, 0.10),
        (0.40, 0.0, 0.60, 0.05, 0.65, 0.30),
        (0.40, 0.0, 0.60, 0.05, 0.70, 0.25),
        (0.40, 0.0, 0.60, 0.40, 0.00, 0.60),
        (0.30, 0.2, 0.50, 0.00, 1.00, 0.00),
        (0.20, 0.3, 0.50, 0.10, 0.60, 0.30),
        (0.05, 0.05, 0.90, 0.02, 0.90, 0.08),
        (0.33, 0.33, 0.34, 0.05, 0.90, 0.05),
        (0.25, 0.0, 0.75, 0.25, 0.50, 0.25),
        (0.49, 0.02, 0.49, 0.05, 0.90, 0.05),
        (0.48, 0.0, 0.52, 0.01, 0.97, 0.02),
        (0.35, 0.1, 0.55, 0.05, 0.80, 0.15),
        (0.45, 0.1, 0.45, 0.15, 0.70, 0.15),
        (0.40, 0.2, 0.40, 0.10, 0.80, 0.10),
    )
)

# strictly losing offenses paired with the sure-draw defense for the
# optimal-equals-lead-chasing identity; equality is not universal in this
# regime (see LEAD_FLOOR_OFFENSES), so the set is restricted to offenses
# where both routes agree to 1e-12 out to horizon 240
IDENTITY_OFFENSES = (
    (0.45, 0.00, 0.55),
    (0.30, 0.00, 0.70),
    (0.10, 0.00, 0.90),
    (0.48, 0.00, 0.52),
    (0.05, 0.00, 0.95),
    (0.20, 0.00, 0.80),
    (0.25, 0.00, 0.75),
    (0.40, 0.00, 0.60),
    (0.15, 0.00, 0.85),
    (0.44, 0.00, 0.56),
    (0.01, 0.00, 0.99),
    (0.12, 0.00, 0.88),
    (0.49, 0.00, 0.51),
    (0.25, 0.15, 0.60),
    (0.20, 0.40, 0.40),
    (0.40, 0.10, 0.50),
    (0.05, 0.85, 0.10),
    (0.32, 0.34, 0.34),
)

# offenses where the optimal solver strictly beats the zero-floored running
# best of the refined lead-chasing gains: the optimal play banks a draw after
# recovering from a deficit, which no always-attack-until-led policy can do.
# Only the one-sided floor (envelope never exceeds optimal) holds here.
LEAD_FLOOR_OFFENSES = (
    (0.35, 0.00, 0.65),
    (0.30, 0.20, 0.50),
    (0.35, 0.05, 0.60),
    (0.15, 0.60, 0.25),
    (0.45, 0.00, 0.55),
    (0.25, 0.15, 0.60),
)

CHESS = SPEC_GRID[0]


@dataclass(frozen=True)
class Check:
    """One verification outcome: a name, a verdict, a compact detail, a duration.

    ``seconds`` is the wall time of the check, which ``run_checks`` fills in.
    ``line`` leaves it out, so the printed lines stay byte-stable.
    """

    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        return f"{self.name}={self.detail} {'PASS' if self.passed else 'FAIL'}"


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _optimal_gains(spec: MatchSpec, n_max: int) -> np.ndarray:
    return dp.gain_curve(spec, n_max).gains["optimal"]


def _check_g2_chess() -> Check:
    result = dp.solve(CHESS, 2)
    one_game = dp.solve(CHESS, 1)
    ok = (
        abs(result.gain - 0.08) <= EXACT_TOL
        and result.policy.action(2, 0) is Action.OFF
        and result.policy.action(1, 1) is Action.DEF
        and result.policy.action(1, -1) is Action.OFF
        and abs(one_game.gain - (-0.05)) <= EXACT_TOL
        and one_game.policy.action(1, 0) is Action.DEF
    )
    return Check("g2_chess", ok, _fmt(result.gain))


def _check_score_monotonicity() -> Check:
    worst = 0.0
    ok = True
    for spec in SPEC_GRID:
        values = dp.solve(spec, 48).values
        for row in values.rows:
            if len(row) > 1:
                worst = max(worst, float(np.max(row[:-1] - row[1:])))
            if np.max(np.abs(row)) > 1.0:
                ok = False
    ok = ok and worst <= EXACT_TOL
    return Check("score_monotonicity", ok, _fmt(worst))


def _check_benchmark_floor() -> Check:
    worst = 0.0
    for spec in SPEC_GRID:
        curve = dp.gain_curve(spec, 48, POLICY_LABELS)
        best = curve.gains["optimal"]
        for label in ("cat", "catplus", "off", "def"):
            worst = max(worst, float(np.max(curve.gains[label] - best)))
    return Check("benchmark_floor", worst <= EXACT_TOL, _fmt(worst))


def _check_catplus_over_cat() -> Check:
    worst = 0.0
    for spec in SPEC_GRID:
        cat, catplus = policies.lead_policy_curves(spec, 60)
        worst = max(worst, float(np.max(cat - catplus)))
    return Check("catplus_over_cat", worst <= EXACT_TOL, _fmt(worst))


def _check_fixed_policy_cross_check() -> Check:
    worst = 0.0
    for spec in SPEC_GRID[:6]:
        for style, action in ((spec.offense, "Off"), (spec.defense, "Def")):
            for n in (1, 7, 50, 200):
                exact = policies.exact_policy_gain(spec, action, n)
                formula = analytic.fixed_style_gain(style, n)
                worst = max(worst, abs(exact - formula))
    return Check("fixed_policy_cross_check", worst <= FORMULA_TOL, _fmt(worst))


def _check_trinomial_convolution() -> Check:
    styles = [spec.offense for spec in SPEC_GRID[:5]] + [
        spec.defense for spec in SPEC_GRID[:5]
    ]
    worst = 0.0
    for style in styles:
        curve = analytic.fixed_style_gain_curve(style, 150)
        for n in (1, 2, 3, 10, 75, 150):
            worst = max(worst, abs(float(curve[n - 1]) - analytic.fixed_style_gain(style, n)))
        for n in (1, 5, 137, 1000):
            total = (
                analytic.fixed_style_positive_prob(style, n)
                + analytic.fixed_style_positive_prob(style.mirror(), n)
                + analytic.fixed_style_draw_prob(style, n)
            )
            worst = max(worst, abs(total - 1.0))
    return Check("trinomial_convolution", worst <= FORMULA_TOL, _fmt(worst))


def _check_mass_conservation() -> Check:
    worst = 0.0
    ok = True
    for spec in SPEC_GRID[:8]:
        for policy in (policies.cat_policy(), policies.cat_plus_policy(spec), "Off"):
            dist = policies.propagate_policy(spec, policy, 80)
            worst = max(worst, dist.max_mass_drift())
            if min(float(stage.min()) for stage in dist.stages) < 0.0:
                ok = False
    ok = ok and worst <= EXACT_TOL
    return Check("mass_conservation", ok, _fmt(worst))


def _check_oracle_agreement() -> Check:
    worst = 0.0
    for spec in SPEC_GRID:
        for n in range(1, 5):
            solved = dp.solve(spec, n).gain
            exact = policies.brute_force_optimal(spec, n)
            worst = max(worst, abs(solved - exact))
    return Check("oracle_agreement", worst <= EXACT_TOL, _fmt(worst))


def _check_protect_lead_identity() -> Check:
    safe = make_distribution(0.0, 1.0, 0.0)
    worst = 0.0
    for probs in IDENTITY_OFFENSES:
        spec = MatchSpec(make_distribution(*probs), safe)
        report = policies.cat_plus_identity_check(spec, 200)
        worst = max(worst, report.max_discrepancy)
    return Check("protect_lead_identity", worst <= EXACT_TOL, _fmt(worst))


def _check_protect_lead_floor() -> Check:
    # one-sided version valid for every strictly losing offense: the envelope
    # is realized by stalling first and lead-chasing afterwards, so the
    # optimal gain can only sit on or above it
    safe = make_distribution(0.0, 1.0, 0.0)
    worst = -np.inf
    for probs in LEAD_FLOOR_OFFENSES:
        spec = MatchSpec(make_distribution(*probs), safe)
        report = policies.cat_plus_identity_check(spec, 120)
        worst = max(worst, float(np.max(report.catplus_envelope - report.optimal)))
    return Check("protect_lead_floor", worst <= EXACT_TOL, _fmt(worst))


def _split_simplex(rng: np.random.Generator, draw_cap: float) -> StyleDistribution:
    d = rng.uniform(0.0, draw_cap)
    w = (1.0 - d) * rng.uniform(0.0, 1.0)
    return make_distribution(w, d, 1.0 - d - w)


def _check_dominance_monotonicity(rng: np.random.Generator, draws: int) -> Check:
    worst = 0.0
    for _ in range(draws):
        offense = _split_simplex(rng, 0.4)
        qd = rng.uniform(offense.draw, 1.0)
        qw = (1.0 - qd) * rng.uniform(0.0, 1.0)
        ql = 1.0 - qd - qw
        into_win = ql * rng.uniform(0.0, 1.0)
        into_draw = (ql - into_win) * rng.uniform(0.0, 1.0)
        base = make_distribution(qw, qd, ql)
        better = make_distribution(qw + into_win, qd + into_draw, ql - into_win - into_draw)
        gains_base = _optimal_gains(MatchSpec(offense, base), 100)
        gains_better = _optimal_gains(MatchSpec(offense, better), 100)
        worst = max(worst, float(np.max(gains_base - gains_better)))
    return Check("dominance_monotonicity", worst <= EXACT_TOL, _fmt(worst))


def _check_parity_inequality(rng: np.random.Generator, draws: int) -> Check:
    # no-draw weak specs: an odd horizon never beats the even one before it
    worst = 0.0
    for _ in range(draws):
        pw = rng.uniform(0.02, 0.5)
        qw = rng.uniform(0.02, 0.5)
        spec = MatchSpec.from_probs(pw, 0.0, 1.0 - pw, qw, 0.0, 1.0 - qw)
        gains = _optimal_gains(spec, 101)
        worst = max(worst, float(np.max(gains[2::2] - gains[1::2])))
    return Check("parity_inequality", worst <= EXACT_TOL, _fmt(worst))


def _check_parity_counterexample() -> Check:
    # with draws allowed the parity inequality can flip
    spec = MatchSpec.from_probs(0.40, 0.0, 0.60, 0.15, 0.70, 0.15)
    gains = _optimal_gains(spec, 101)
    flips = np.nonzero(gains[2::2] > gains[1::2])[0]
    if len(flips) == 0:
        return Check("parity_counterexample", False, "none")
    witness = 2 * int(flips[0]) + 3  # first odd horizon beating its predecessor
    return Check("parity_counterexample", True, str(witness))


def _check_heavy_defense_nonpositive(rng: np.random.Generator, draws: int) -> Check:
    # weak specs whose defense loses at least as often as the offense wins
    worst = -1.0
    for _ in range(draws):
        pd = rng.uniform(0.0, 0.4)
        pw = rng.uniform(0.02, (1.0 - pd) / 2.0)
        qd = rng.uniform(pd, 1.0 - pw)
        ql = rng.uniform(max(pw, (1.0 - qd) / 2.0), 1.0 - qd)
        spec = MatchSpec.from_probs(pw, pd, 1.0 - pd - pw, 1.0 - qd - ql, qd, ql)
        worst = max(worst, float(np.max(_optimal_gains(spec, 100))))
    return Check("heavy_defense_nonpositive", worst <= EXACT_TOL, _fmt(worst))


def _check_fair_defense_floor(rng: np.random.Generator, draws: int) -> Check:
    floor_ok = True
    strict_ok = True
    worst_floor = 0.0
    for i in range(draws):
        pd = rng.uniform(0.0, 0.4)
        pw = rng.uniform(0.05, (1.0 - pd) / 2.0)
        if i % 2 == 0:
            qw = rng.uniform(0.01, max(0.011, pw - 0.01))  # strictly smaller win rate
        else:
            qw = rng.uniform(0.01, (1.0 - pd) / 2.0)
        spec = MatchSpec.from_probs(pw, pd, 1.0 - pd - pw, qw, 1.0 - 2.0 * qw, qw)
        gains = _optimal_gains(spec, 100)
        worst_floor = min(worst_floor, float(np.min(gains)))
        if np.min(gains) < -EXACT_TOL:
            floor_ok = False
        if spec.defense.win < spec.offense.win and np.min(gains[1:]) <= 0.0:
            strict_ok = False
    return Check("fair_defense_floor", floor_ok and strict_ok, _fmt(worst_floor))


def _check_safe_defense_monotone(rng: np.random.Generator, draws: int) -> Check:
    safe = make_distribution(0.0, 1.0, 0.0)
    worst = 0.0
    for _ in range(draws):
        offense = _split_simplex(rng, 0.6)
        gains = _optimal_gains(MatchSpec(offense, safe), 120)
        worst = max(worst, float(np.max(gains[:-1] - gains[1:])))
    return Check("safe_defense_monotone", worst <= EXACT_TOL, _fmt(worst))


def _check_user_spec(spec: MatchSpec) -> Check:
    curve = dp.gain_curve(spec, 60, POLICY_LABELS)
    best = curve.gains["optimal"]
    floor_gap = max(
        float(np.max(curve.gains[label] - best))
        for label in ("cat", "catplus", "off", "def")
    )
    drift = policies.propagate_policy(spec, policies.cat_policy(), 60).max_mass_drift()
    oracle_gap = 0.0
    try:
        for n in range(1, 4):
            oracle_gap = max(
                oracle_gap, abs(dp.solve(spec, n).gain - policies.brute_force_optimal(spec, n))
            )
    except InvalidOracleInput:
        pass  # spec is not a short decimal; the integer oracle does not apply
    ok = floor_gap <= EXACT_TOL and drift <= EXACT_TOL and oracle_gap <= EXACT_TOL
    return Check("user_spec", ok, _fmt(float(best[-1])))


def run_checks(user_spec: MatchSpec | None = None, seed: int = 0, draws: int = 100) -> list[Check]:
    """Run the whole checklist; randomized checks use ``draws`` samples each.

    Each returned check carries its own wall time in ``seconds``.
    """
    rng = np.random.default_rng(require_seed(seed))
    draws = require_integer(draws, InvalidSampleCount, "draws must be a positive integer")
    # in this order: the randomized checks share one generator
    runs = [
        _check_g2_chess,
        _check_score_monotonicity,
        _check_benchmark_floor,
        _check_catplus_over_cat,
        _check_fixed_policy_cross_check,
        _check_trinomial_convolution,
        _check_mass_conservation,
        _check_oracle_agreement,
        _check_protect_lead_identity,
        _check_protect_lead_floor,
        lambda: _check_dominance_monotonicity(rng, draws),
        lambda: _check_parity_inequality(rng, draws),
        _check_parity_counterexample,
        lambda: _check_heavy_defense_nonpositive(rng, draws),
        lambda: _check_fair_defense_floor(rng, draws),
        lambda: _check_safe_defense_monotone(rng, draws),
    ]
    if user_spec is not None:
        require_instance(user_spec, MatchSpec)
        runs.append(lambda: _check_user_spec(user_spec))
    checks = []
    for run in runs:
        start = time.perf_counter()
        check = run()
        checks.append(replace(check, seconds=time.perf_counter() - start))
    return checks
