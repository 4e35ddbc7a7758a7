"""Exception types shared across the package, and the integer guard behind them."""

import math


class MatchPlayError(Exception):
    """Base class for every package-specific error."""


class InvalidProbability(MatchPlayError):
    """A probability lies outside [0, 1] or a triple does not sum to 1."""


class InvalidMatchSpec(MatchPlayError):
    """The offense/defense pair violates the defensive convention."""


class InvalidHorizon(MatchPlayError):
    """Match length must be a positive integer."""


class HorizonTooLarge(MatchPlayError):
    """Requested horizon exceeds the configured memory budget."""


class OracleHorizonTooLarge(HorizonTooLarge):
    """Exhaustive policy enumeration is capped at very short matches."""


class InvalidOracleInput(MatchPlayError):
    """Oracle probabilities must be decimals with at most six fractional digits."""


class RegimeNotCovered(MatchPlayError):
    """The requested asymptotic result does not apply to this parameter regime."""


class InvalidSampleCount(MatchPlayError):
    """Monte Carlo sample count must be a positive integer."""


class InvalidSeed(MatchPlayError):
    """A seed must be a non-negative integer; Monte Carlo keys also stay below 2**128."""


class InvalidState(MatchPlayError, ValueError):
    """A stage or score lies off the lattice a solved table covers."""


class InvalidPolicy(MatchPlayError, ValueError):
    """A policy label, or an action a policy returns, is not one the package knows."""


def require_integer(value, error: type[MatchPlayError], rule: str, low=1, high=math.inf) -> int:
    """Return ``value`` as a plain int in [low, high), or raise ``error``.

    Integral floats and numpy integers pass; bools (Python or numpy), strings,
    non-finite and non-integral values do not. ``rule`` opens the message.
    Numpy bools are told by their dtype, so the guard needs no numpy import.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{rule}, got {value!r}") from None
    is_bool = isinstance(value, bool) or getattr(value, "dtype", None) == bool
    if is_bool or n != value or not low <= n < high:
        raise error(f"{rule}, got {value!r}")
    return n


def require_horizon(n_games, budget=None) -> int:
    """Validate a match length and return it as a plain int.

    With a ``budget`` the length must also fit in ``budget`` stages. Callers
    pass their module's budget constant, read at call time.
    """
    n = require_integer(n_games, InvalidHorizon, "match length must be a positive integer")
    if budget is not None and n > budget:
        raise HorizonTooLarge(f"horizon {n} exceeds the configured budget of {budget} stages")
    return n


def require_seed(seed) -> int:
    """Validate a seed for ``numpy.random.default_rng`` and return it as a plain int."""
    return require_integer(seed, InvalidSeed, "seed must be a non-negative integer", low=0)
