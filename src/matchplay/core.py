"""Domain types: per-style outcome distributions, match specifications,
regime classification, and the long-match limits each regime admits.

All types are immutable after construction and safe to share across threads.
Probability comparisons that decide a regime flag use an absolute tolerance of
``EQ_TOL``: inputs are short decimals, so anything closer than 1e-12 is
rounding noise rather than intent.

The module is plain Python and imports no numpy, so the ``classify`` and
``limits`` commands start without it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidMatchSpec, InvalidProbability, RegimeNotCovered

EQ_TOL = 1e-12

# the policy names that gain curves and the command line accept, in output order
POLICY_LABELS = ("optimal", "cat", "catplus", "off", "def")


class Action(Enum):
    """The two styles a player can adopt for a single game."""

    OFF = "Off"
    DEF = "Def"


@dataclass(frozen=True)
class StyleDistribution:
    """Win/draw/loss probabilities of one game played in a given style."""

    win: float
    draw: float
    loss: float

    def __post_init__(self) -> None:
        for name in ("win", "draw", "loss"):
            value = getattr(self, name)
            # numbers.Real covers numpy scalars too; np.bool_ is not registered there
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise InvalidProbability(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise InvalidProbability(f"{name} must be finite, got {value!r}")
            if value < 0.0 or value > 1.0:
                raise InvalidProbability(f"{name} must lie in [0, 1], got {value!r}")
            # + 0.0 stores -0.0 as +0.0: the forward walk relies on every
            # coefficient times an empty cell being +0.0
            object.__setattr__(self, name, float(value) + 0.0)
        total = self.win + self.draw + self.loss
        if abs(total - 1.0) > EQ_TOL:
            raise InvalidProbability(f"probabilities sum to {total!r}, expected 1 within {EQ_TOL}")

    @property
    def drift(self) -> float:
        """Expected one-game score increment, win minus loss."""
        return self.win - self.loss

    def mirror(self) -> "StyleDistribution":
        """The same style with win and loss swapped."""
        return StyleDistribution(self.loss, self.draw, self.win)


def make_distribution(win: float, draw: float, loss: float) -> StyleDistribution:
    """Build a validated win/draw/loss distribution."""
    return StyleDistribution(win, draw, loss)


def dominates(a: StyleDistribution, b: StyleDistribution) -> bool:
    """True when ``a`` is at least as good as ``b`` in both tails.

    ``a`` dominates ``b`` when it wins at least as often and loses at most as
    often, compared with tolerance ``EQ_TOL``. A stand-in for either style
    raises ``InvalidProbability``.
    """
    require_instance(a, StyleDistribution)
    require_instance(b, StyleDistribution)
    return _dominates(a, b)


def _dominates(a: StyleDistribution, b: StyleDistribution) -> bool:
    # unguarded: MatchSpec has already checked both styles
    return a.win >= b.win - EQ_TOL and a.loss <= b.loss + EQ_TOL


@dataclass(frozen=True)
class Classification:
    """Regime flags for an offense/defense pair.

    ``weak`` means neither style wins more than it loses. ``safe_defense``
    means the defensive style draws surely, ``fair_defense`` that it wins and
    loses equally often. ``fair_non_safe`` singles out fair defenses that can
    still move the score.
    """

    weak: bool
    strictly_weak: bool
    safe_defense: bool
    fair_defense: bool
    fair_non_safe: bool
    defense_dominates_offense: bool
    offense_dominates_defense: bool


def _classify(offense: StyleDistribution, defense: StyleDistribution) -> Classification:
    weak = (offense.win <= offense.loss + EQ_TOL) and (defense.win <= defense.loss + EQ_TOL)
    strictly_weak = (offense.win < offense.loss - EQ_TOL) and (defense.win < defense.loss - EQ_TOL)
    safe = abs(defense.draw - 1.0) <= EQ_TOL
    fair = abs(defense.win - defense.loss) <= EQ_TOL
    if weak:
        # the defensive convention (defense draws at least as often) plus
        # weakness forces the defense to win no more than the offense loses
        assert defense.win <= offense.loss + 2 * EQ_TOL
    return Classification(
        weak=weak,
        strictly_weak=strictly_weak,
        safe_defense=safe,
        fair_defense=fair,
        fair_non_safe=fair and not safe,
        defense_dominates_offense=_dominates(defense, offense),
        offense_dominates_defense=_dominates(offense, defense),
    )


@dataclass(frozen=True)
class MatchSpec:
    """An offense/defense pair obeying the defensive convention.

    The defensive style must draw at least as often as the offensive one;
    violations raise ``InvalidMatchSpec`` rather than silently swapping the
    styles. A stand-in for either style (a tuple of three probabilities, say)
    raises ``InvalidProbability``. Classification happens eagerly and is
    cached on the instance.
    """

    offense: StyleDistribution
    defense: StyleDistribution
    classification: Classification = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        require_instance(self.offense, StyleDistribution)
        require_instance(self.defense, StyleDistribution)
        if self.defense.draw < self.offense.draw - EQ_TOL:
            raise InvalidMatchSpec(
                f"defense must draw at least as often as offense "
                f"(draw {self.defense.draw!r} < {self.offense.draw!r})"
            )
        object.__setattr__(self, "classification", _classify(self.offense, self.defense))

    @classmethod
    def from_probs(
        cls, pw: float, pd: float, pl: float, qw: float, qd: float, ql: float
    ) -> "MatchSpec":
        return cls(StyleDistribution(pw, pd, pl), StyleDistribution(qw, qd, ql))


def require_instance(value, kind: type):
    """Return ``value`` if it is a ``kind``, or raise that kind's input error.

    A stand-in for a ``MatchSpec`` (a tuple of six probabilities, say) raises
    ``InvalidMatchSpec``, one for a ``StyleDistribution`` raises
    ``InvalidProbability``. The check is one ``isinstance``, so entry points
    on hot paths pay nothing for it.
    """
    if isinstance(value, kind):
        return value
    error = InvalidMatchSpec if kind is MatchSpec else InvalidProbability
    raise error(f"expected a {kind.__name__}, got {value!r}")


def classify(spec: MatchSpec) -> Classification:
    """Return the cached classification of ``spec``."""
    return require_instance(spec, MatchSpec).classification


def hitting_probability(style: StyleDistribution) -> float:
    """Chance that the score walk driven by ``style`` ever reaches +1 from 0.

    Total by convention: 0 when the style never wins, 1 when it wins at least
    as often as it loses (or never loses while winning sometimes), and
    win/loss for the strictly losing case.
    """
    require_instance(style, StyleDistribution)
    w, l = style.win, style.loss
    if w <= 0.0:
        return 0.0
    if l <= 0.0 or w >= l:
        return 1.0
    return w / l


class Regime(Enum):
    """Parameter regimes with a known long-match limit for optimal play."""

    BOTH_STRICTLY_LOSING = "both_strictly_losing"
    FAIR_NON_SAFE = "fair_non_safe"
    SAFE_DEFENSE = "safe_defense"


@dataclass(frozen=True)
class AsymptoticVerdict:
    """Long-match limits: the optimal one always, the protect-the-lead one when defined."""

    regime: Regime
    optimal_limit: float
    cat_limit: float | None


def cat_limit(spec: MatchSpec) -> float:
    """Limit of the protect-the-lead gain as the match length grows.

    Requires a weak player and a defense that is either a sure draw or fair.
    With hitting probability h of ever leading, the limit is 2h - 1 for a
    sure-draw defense (lead frozen forever) and h - 1 for a fair one (the
    post-switch walk ends positive or negative with equal chance).
    """
    cls = require_instance(spec, MatchSpec).classification
    if not cls.weak:
        raise RegimeNotCovered("no limit is derived unless the player is weak")
    if not (cls.safe_defense or cls.fair_non_safe):
        raise RegimeNotCovered("defense must be a sure draw or fair for this limit")
    offense = spec.offense
    if offense.win <= 0.0 and offense.loss <= 0.0:
        raise RegimeNotCovered("offense never moves the score, so the lead is never chased")
    h = hitting_probability(offense)
    return 2.0 * h - 1.0 if cls.safe_defense else h - 1.0


def optimal_limit(spec: MatchSpec) -> AsymptoticVerdict:
    """Long-match limit of the optimal gain, with the regime that justifies it.

    Covered regimes for a weak player with strictly losing offense:
    a strictly losing defense drives the gain to -1, a fair non-safe defense
    to 0, and a sure-draw defense to max(0, 2 * win/loss - 1). A fair offense
    or a non-weak player is refused rather than extrapolated.
    """
    cls = require_instance(spec, MatchSpec).classification
    if not cls.weak:
        raise RegimeNotCovered("no limit is derived unless the player is weak")
    offense = spec.offense
    if abs(offense.win - offense.loss) <= EQ_TOL:
        raise RegimeNotCovered("fair offense has no covered limit")
    if cls.safe_defense:
        chase = cat_limit(spec)
        return AsymptoticVerdict(Regime.SAFE_DEFENSE, max(0.0, chase), chase)
    if cls.fair_non_safe:
        return AsymptoticVerdict(Regime.FAIR_NON_SAFE, 0.0, cat_limit(spec))
    # weak with an unfair defense means the defense is strictly losing too
    return AsymptoticVerdict(Regime.BOTH_STRICTLY_LOSING, -1.0, None)
