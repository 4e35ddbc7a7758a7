"""Domain types: per-style outcome distributions, match specifications, and
regime classification.

All types are immutable after construction and safe to share across threads.
Probability comparisons that decide a regime flag use an absolute tolerance of
``EQ_TOL``: inputs are short decimals, so anything closer than 1e-12 is
rounding noise rather than intent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidMatchSpec, InvalidProbability

EQ_TOL = 1e-12


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
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidProbability(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise InvalidProbability(f"{name} must be finite, got {value!r}")
            if value < 0.0 or value > 1.0:
                raise InvalidProbability(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, float(value))
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
    often, compared with tolerance ``EQ_TOL``.
    """
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
        defense_dominates_offense=dominates(defense, offense),
        offense_dominates_defense=dominates(offense, defense),
    )


@dataclass(frozen=True)
class MatchSpec:
    """An offense/defense pair obeying the defensive convention.

    The defensive style must draw at least as often as the offensive one;
    violations raise ``InvalidMatchSpec`` rather than silently swapping the
    styles. Classification happens eagerly and is cached on the instance.
    """

    offense: StyleDistribution
    defense: StyleDistribution
    classification: Classification = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
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


def classify(spec: MatchSpec) -> Classification:
    """Return the cached classification of ``spec``."""
    return spec.classification
