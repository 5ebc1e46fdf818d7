"""Cardinality-level comparison of explanations (Sec. 3.2.3).

Implements the cardinality distance of Definition 5 (Eq. 3.19) for
problems with a given threshold, the threshold-free variant for the
empty-answer problem (Eq. 3.20), and the :class:`CardinalityThreshold`
interval abstraction used by the holistic dispatcher (Sec. 3.1.3,
Fig. 3.1) to classify a result size as empty / too few / expected / too
many and to steer the search direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class CardinalityProblem(Enum):
    """Classification of a result size against a threshold interval."""

    EMPTY = "why-empty"
    TOO_FEW = "why-so-few"
    EXPECTED = "expected"
    TOO_MANY = "why-so-many"


def deviation(cardinality: int, threshold: int) -> int:
    """``|Cthr - C(Q)|`` -- the building block of Eq. 3.19."""
    return abs(threshold - cardinality)


def cardinality_distance(threshold: int, c1: int, c2: int) -> int:
    """Eq. 3.19: how much closer/farther explanation 2 sits to the threshold.

    ``Delta_c(Q1, Q2) = ||Cthr - C(Q1)| - |Cthr - C(Q2)||``.
    """
    return abs(deviation(c1, threshold) - deviation(c2, threshold))


def empty_answer_cardinality_distance(c1: int, c2: int) -> int:
    """Eq. 3.20 for the empty-answer problem (no threshold given).

    Defined only for explanations that deliver non-empty results; the
    thesis compares only those, preferring smaller result sets.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError(
            "Eq. 3.20 compares only non-empty results "
            f"(got cardinalities {c1} and {c2})"
        )
    return abs(c1 - c2)


@dataclass(frozen=True)
class CardinalityThreshold:
    """A cardinality constraint, possibly an interval (Sec. 3.1.3).

    ``lower``/``upper`` bound the *expected* result size; a plain scalar
    threshold for the too-many problem is ``CardinalityThreshold(upper=t)``
    and for the too-few problem ``CardinalityThreshold(lower=t)``.
    """

    lower: Optional[int] = None
    upper: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValueError("threshold needs at least one bound")
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if (self.lower is not None and self.lower < 0) or (
            self.upper is not None and self.upper < 0
        ):
            raise ValueError("cardinality bounds must be non-negative")

    @staticmethod
    def exactly(target: int, tolerance: int = 0) -> "CardinalityThreshold":
        """Interval ``[target - tolerance, target + tolerance]``."""
        return CardinalityThreshold(
            max(0, target - tolerance), target + tolerance
        )

    @staticmethod
    def at_least(target: int) -> "CardinalityThreshold":
        return CardinalityThreshold(lower=target)

    @staticmethod
    def at_most(target: int) -> "CardinalityThreshold":
        return CardinalityThreshold(upper=target)

    def classify(self, cardinality: int) -> CardinalityProblem:
        """Which cardinality-based problem does this result size exhibit?"""
        if cardinality == 0:
            if self.lower is None or self.lower > 0:
                return CardinalityProblem.EMPTY
            return CardinalityProblem.EXPECTED
        if self.lower is not None and cardinality < self.lower:
            return CardinalityProblem.TOO_FEW
        if self.upper is not None and cardinality > self.upper:
            return CardinalityProblem.TOO_MANY
        return CardinalityProblem.EXPECTED

    def satisfied_by(self, cardinality: int) -> bool:
        return self.classify(cardinality) == CardinalityProblem.EXPECTED

    def distance(self, cardinality: int) -> int:
        """Distance of ``cardinality`` to the expected interval (0 inside)."""
        if self.lower is not None and cardinality < self.lower:
            return self.lower - cardinality
        if self.upper is not None and cardinality > self.upper:
            return cardinality - self.upper
        return 0

    def direction(self, cardinality: int) -> int:
        """-1 when results must shrink, +1 when they must grow, 0 inside.

        This sign is what lets the fine-grained search oscillate around the
        threshold (Fig. 3.1): each candidate is pushed towards the interval
        no matter on which side it currently falls.
        """
        problem = self.classify(cardinality)
        if problem in (CardinalityProblem.EMPTY, CardinalityProblem.TOO_FEW):
            return 1
        if problem == CardinalityProblem.TOO_MANY:
            return -1
        return 0

    @property
    def probe_limit(self) -> Optional[int]:
        """Evaluation bound: counting past ``upper + 1`` is never needed."""
        if self.upper is None:
            return None if self.lower is None else self.lower
        return self.upper + 1

    @property
    def search_probe_limit(self) -> Optional[int]:
        """Count bound of a search steering towards the interval: a margin
        past :attr:`probe_limit`, so a variant's count also tells *how
        far* outside the interval it lies (its :meth:`distance`)."""
        limit = self.probe_limit
        return None if limit is None else max(limit * 4, limit + 16)

    def __str__(self) -> str:
        lo = "0" if self.lower is None else str(self.lower)
        hi = "inf" if self.upper is None else str(self.upper)
        return f"[{lo}; {hi}]"
