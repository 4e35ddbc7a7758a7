"""Solver and verification toolkit for adaptive two-style match play.

A match is a fixed number of games between a player who may switch between an
offensive and a defensive style and an opponent whose behavior is folded into
the per-style win/draw/loss distributions. The match objective is the expected
sign of the final score (wins minus losses). The package computes optimal
switching rules by backward induction, evaluates benchmark policies exactly,
derives long-match limits, and cross-checks everything against brute-force
enumeration and Monte Carlo simulation.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name; a name is imported on first use, so a
# process pays only for the modules it touches (``core`` and ``errors`` need no numpy)
_EXPORTS = {
    "core": (
        "EQ_TOL",
        "Action",
        "AsymptoticVerdict",
        "Classification",
        "MatchSpec",
        "Regime",
        "StyleDistribution",
        "cat_limit",
        "classify",
        "dominates",
        "hitting_probability",
        "make_distribution",
        "optimal_limit",
    ),
    "errors": (
        "HorizonTooLarge",
        "InvalidHorizon",
        "InvalidMatchSpec",
        "InvalidOracleInput",
        "InvalidPolicy",
        "InvalidProbability",
        "InvalidSampleCount",
        "InvalidSeed",
        "InvalidState",
        "MatchPlayError",
        "OracleHorizonTooLarge",
        "RegimeNotCovered",
    ),
    "analytic": (
        "fixed_style_draw_prob",
        "fixed_style_gain",
        "fixed_style_gain_curve",
        "fixed_style_positive_prob",
        "score_distribution",
        "sign_expectation",
    ),
    "dp": (
        "GainCurve",
        "HorizonResult",
        "PolicyTable",
        "SolveResult",
        "ValueTable",
        "find_optimal_horizon",
        "gain_curve",
        "solve",
    ),
    "policies": (
        "AugmentedDistribution",
        "CatPlusPolicy",
        "CatPolicy",
        "FixedPolicy",
        "IdentityReport",
        "Policy",
        "TablePolicy",
        "as_policy",
        "brute_force_optimal",
        "cat_gain_curve",
        "cat_plus_gain_curve",
        "cat_plus_identity_check",
        "cat_plus_policy",
        "cat_policy",
        "exact_policy_gain",
        "fixed_policy",
        "lead_policy_curves",
        "propagate_policy",
        "table_policy",
    ),
    "sim": ("SimEstimate", "estimate_gain", "simulate_match"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, so `matchplay.dp` works after a bare `import matchplay`
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
