"""Exception types shared across the package."""


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


def require_horizon(n_games) -> int:
    """Validate a match length and return it as a plain int."""
    try:
        n = int(n_games)
    except (TypeError, ValueError):
        raise InvalidHorizon(f"match length must be a positive integer, got {n_games!r}") from None
    if isinstance(n_games, bool) or n != n_games or n < 1:
        raise InvalidHorizon(f"match length must be a positive integer, got {n_games!r}")
    return n
