"""Self-contained verification checklist for the solver and the policies.

Every structural claim the package relies on is packed into one runnable
suite: regression anchors with hand-computable values, exact cross-checks
between independent computation routes, and randomized property checks over
generated parameter grids. ``run_checks`` returns one record per check; the
command-line ``verify`` subcommand prints them and sets the exit code.

Every check has one of three shapes:

- a fixed check sweeps hand-picked specs (``SPEC_GRID`` and the sure-draw
  offense sets) and reduces one statistic per spec to its worst value;
- a randomized check first draws all its specs from the shared generator,
  each through a named drawer and in a fixed order, and only then solves
  them, so its lines depend on the seed alone;
- ``user_spec`` reuses the grid's statistics (benchmark floor gap, mass
  drift and oracle gap) on the spec given on the command line.

A fixed or randomized check passes by one rule, ``_worst``: its worst
statistic, floored at zero (or at a lower bound of the statistic), is at
most the tolerance. ``g2_chess``, ``parity_counterexample``,
``fair_defense_floor`` and ``user_spec`` state their own rules.

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

_SURE_DRAW = make_distribution(0.0, 1.0, 0.0)


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


def _worst(name: str, stats, tol: float = EXACT_TOL, floor: float = 0.0, ok: bool = True) -> Check:
    """The pass rule: the worst statistic, floored at ``floor``, is at most ``tol``."""
    worst = float(max((floor, *stats)))
    return Check(name, ok and worst <= tol, _fmt(worst))


def _optimal_gains(spec: MatchSpec, n_max: int) -> np.ndarray:
    return dp.gain_curve(spec, n_max).gains["optimal"]


def _floor_gap(curve: dp.GainCurve) -> float:
    """How far any benchmark policy of ``curve`` rises above its optimal gain."""
    best = curve.gains["optimal"]
    # every label after "optimal" names a benchmark policy
    return max(float(np.max(curve.gains[label] - best)) for label in POLICY_LABELS[1:])


def _mass_drift(spec: MatchSpec, policy, n_games: int) -> tuple[float, bool]:
    """Mass drift under ``policy`` and whether every cell stays nonnegative.

    The drift is the largest deviation of a stage's total mass from 1.
    """
    dist = policies.propagate_policy(spec, policy, n_games)
    return dist.max_mass_drift(), min(float(stage.min()) for stage in dist.stages) >= 0.0


def _oracle_gap(spec: MatchSpec, gains: np.ndarray) -> float:
    """Largest gap between the optimal ``gains`` of horizons 1, 2, ... and the exhaustive oracle."""
    gaps = (abs(gain - policies.brute_force_optimal(spec, n)) for n, gain in enumerate(gains, 1))
    return float(max((0.0, *gaps)))


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
    tables = [dp.solve(spec, 48).values for spec in SPEC_GRID]
    rows = [table._expanded_row(k) for table in tables for k in range(49)]
    drops = (np.max(row[:-1] - row[1:]) for row in rows if len(row) > 1)
    bounded = not any(np.max(np.abs(row)) > 1.0 for row in rows)
    return _worst("score_monotonicity", drops, ok=bounded)


def _check_benchmark_floor() -> Check:
    gaps = (_floor_gap(dp.gain_curve(spec, 48, POLICY_LABELS)) for spec in SPEC_GRID)
    return _worst("benchmark_floor", gaps)


def _check_catplus_over_cat() -> Check:
    curves = (policies.lead_policy_curves(spec, 60) for spec in SPEC_GRID)
    return _worst("catplus_over_cat", (np.max(cat - catplus) for cat, catplus in curves))


def _check_fixed_policy_cross_check() -> Check:
    gaps = (
        abs(policies.exact_policy_gain(spec, action, n) - analytic.fixed_style_gain(style, n))
        for spec in SPEC_GRID[:6]
        for style, action in ((spec.offense, "Off"), (spec.defense, "Def"))
        for n in (1, 7, 50, 200)
    )
    return _worst("fixed_policy_cross_check", gaps, FORMULA_TOL)


def _check_trinomial_convolution() -> Check:
    styles = [spec.offense for spec in SPEC_GRID[:5]] + [
        spec.defense for spec in SPEC_GRID[:5]
    ]
    gaps = []
    for style in styles:
        curve = analytic.fixed_style_gain_curve(style, 150)
        for n in (1, 2, 3, 10, 75, 150):
            gaps.append(abs(float(curve[n - 1]) - analytic.fixed_style_gain(style, n)))
        for n in (1, 5, 137, 1000):
            total = (
                analytic.fixed_style_positive_prob(style, n)
                + analytic.fixed_style_positive_prob(style.mirror(), n)
                + analytic.fixed_style_draw_prob(style, n)
            )
            gaps.append(abs(total - 1.0))
    return _worst("trinomial_convolution", gaps, FORMULA_TOL)


def _check_mass_conservation() -> Check:
    results = [
        _mass_drift(spec, policy, 80)
        for spec in SPEC_GRID[:8]
        for policy in (policies.cat_policy(), policies.cat_plus_policy(spec), "Off")
    ]
    nonnegative = all(ok for _, ok in results)
    return _worst("mass_conservation", (drift for drift, _ in results), ok=nonnegative)


def _check_oracle_agreement() -> Check:
    gaps = (_oracle_gap(spec, _optimal_gains(spec, 4)) for spec in SPEC_GRID)
    return _worst("oracle_agreement", gaps)


def _sure_draw_reports(offenses, n_max: int):
    """``cat_plus_identity_check`` of each offense against the sure-draw defense."""
    for probs in offenses:
        spec = MatchSpec(make_distribution(*probs), _SURE_DRAW)
        yield policies.cat_plus_identity_check(spec, n_max)


def _check_protect_lead_identity() -> Check:
    reports = _sure_draw_reports(IDENTITY_OFFENSES, 200)
    return _worst("protect_lead_identity", (report.max_discrepancy for report in reports))


def _check_protect_lead_floor() -> Check:
    # one-sided version valid for every strictly losing offense: the envelope
    # is realized by stalling first and lead-chasing afterwards, so the
    # optimal gain can only sit on or above it
    reports = _sure_draw_reports(LEAD_FLOOR_OFFENSES, 120)
    gaps = (np.max(report.catplus_envelope - report.optimal) for report in reports)
    return _worst("protect_lead_floor", gaps, floor=-np.inf)


# Spec drawers for the randomized checks. Each check draws all its specs
# first, then solves them; the solvers never touch the generator, so the
# draws, and with them the printed lines, follow the generator's order alone.


def _split_simplex(rng: np.random.Generator, draw_cap: float) -> StyleDistribution:
    d = rng.uniform(0.0, draw_cap)
    w = (1.0 - d) * rng.uniform(0.0, 1.0)
    return make_distribution(w, d, 1.0 - d - w)


def _dominance_pair(rng: np.random.Generator) -> tuple[MatchSpec, MatchSpec]:
    """One offense against a defense and against a defense that dominates it."""
    offense = _split_simplex(rng, 0.4)
    qd = rng.uniform(offense.draw, 1.0)
    qw = (1.0 - qd) * rng.uniform(0.0, 1.0)
    ql = 1.0 - qd - qw
    into_win = ql * rng.uniform(0.0, 1.0)
    into_draw = (ql - into_win) * rng.uniform(0.0, 1.0)
    base = make_distribution(qw, qd, ql)
    better = make_distribution(qw + into_win, qd + into_draw, ql - into_win - into_draw)
    return MatchSpec(offense, base), MatchSpec(offense, better)


def _no_draw_spec(rng: np.random.Generator) -> MatchSpec:
    """A weak spec in which neither style ever draws."""
    pw = rng.uniform(0.02, 0.5)
    qw = rng.uniform(0.02, 0.5)
    return MatchSpec.from_probs(pw, 0.0, 1.0 - pw, qw, 0.0, 1.0 - qw)


def _heavy_defense_spec(rng: np.random.Generator) -> MatchSpec:
    """A weak spec whose defense loses at least as often as the offense wins."""
    pd = rng.uniform(0.0, 0.4)
    pw = rng.uniform(0.02, (1.0 - pd) / 2.0)
    qd = rng.uniform(pd, 1.0 - pw)
    ql = rng.uniform(max(pw, (1.0 - qd) / 2.0), 1.0 - qd)
    return MatchSpec.from_probs(pw, pd, 1.0 - pd - pw, 1.0 - qd - ql, qd, ql)


def _fair_defense_spec(rng: np.random.Generator, strict: bool) -> MatchSpec:
    """A spec with a fair defense; ``strict`` makes it win less often than the offense."""
    pd = rng.uniform(0.0, 0.4)
    pw = rng.uniform(0.05, (1.0 - pd) / 2.0)
    if strict:
        qw = rng.uniform(0.01, max(0.011, pw - 0.01))
    else:
        qw = rng.uniform(0.01, (1.0 - pd) / 2.0)
    return MatchSpec.from_probs(pw, pd, 1.0 - pd - pw, qw, 1.0 - 2.0 * qw, qw)


def _check_dominance_monotonicity(rng: np.random.Generator, draws: int) -> Check:
    pairs = [_dominance_pair(rng) for _ in range(draws)]
    gaps = (
        np.max(_optimal_gains(base, 100) - _optimal_gains(better, 100)) for base, better in pairs
    )
    return _worst("dominance_monotonicity", gaps)


def _check_parity_inequality(rng: np.random.Generator, draws: int) -> Check:
    # no-draw weak specs: an odd horizon never beats the even one before it
    specs = [_no_draw_spec(rng) for _ in range(draws)]
    curves = (_optimal_gains(spec, 101) for spec in specs)
    return _worst("parity_inequality", (np.max(gains[2::2] - gains[1::2]) for gains in curves))


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
    specs = [_heavy_defense_spec(rng) for _ in range(draws)]
    peaks = (np.max(_optimal_gains(spec, 100)) for spec in specs)
    return _worst("heavy_defense_nonpositive", peaks, floor=-1.0)


def _check_fair_defense_floor(rng: np.random.Generator, draws: int) -> Check:
    # even draws take a defense that wins strictly less often than the offense
    specs = [_fair_defense_spec(rng, strict=i % 2 == 0) for i in range(draws)]
    solved = [(spec, _optimal_gains(spec, 100)) for spec in specs]
    # min, not -max(-x): negating would print the zero floor as -0
    lowest = min((0.0, *(float(np.min(gains)) for _, gains in solved)))
    strict_ok = not any(
        spec.defense.win < spec.offense.win and np.min(gains[1:]) <= 0.0
        for spec, gains in solved
    )
    return Check("fair_defense_floor", lowest >= -EXACT_TOL and strict_ok, _fmt(lowest))


def _check_safe_defense_monotone(rng: np.random.Generator, draws: int) -> Check:
    specs = [MatchSpec(_split_simplex(rng, 0.6), _SURE_DRAW) for _ in range(draws)]
    curves = (_optimal_gains(spec, 120) for spec in specs)
    return _worst("safe_defense_monotone", (np.max(gains[:-1] - gains[1:]) for gains in curves))


def _check_user_spec(spec: MatchSpec) -> Check:
    curve = dp.gain_curve(spec, 60, POLICY_LABELS)
    drift, nonnegative = _mass_drift(spec, policies.cat_policy(), 60)
    try:
        oracle_gap = _oracle_gap(spec, curve.gains["optimal"][:3])
    except InvalidOracleInput:
        oracle_gap = 0.0  # spec is not a short decimal; the integer oracle does not apply
    ok = max(_floor_gap(curve), drift, oracle_gap) <= EXACT_TOL and nonnegative
    return Check("user_spec", ok, _fmt(curve.gains["optimal"][-1]))


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
