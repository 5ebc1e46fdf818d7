"""Predicate intervals for the property-graph query model (Sec. 3.2.2).

The thesis models every constraint on an attribute as a *predicate
interval*: a disjunction of attribute values the data element may take
(Eq. 3.2), e.g. ``name = Anna OR Alice`` or ``1 < age < 4`` (which, over the
integers, comprises the values ``{2, 3}``).

Two concrete predicate kinds are provided:

* :class:`ValueSet` -- an explicit finite disjunction of discrete values.
* :class:`Interval` -- a numeric range with open/closed bounds.

Both expose the same small interface used throughout the library:

``matches(value)``
    membership test used by the pattern matcher,
``atoms()``
    a finite, hashable set of *atomic descriptors* used by the syntactic
    distance (Sec. 3.2.2): for finite predicates these are the values
    themselves; for non-enumerable numeric intervals they are the two bound
    descriptors, which still yields a graded modified-Hausdorff distance,
``signature()``
    a stable hashable form used for query canonicalisation and caching,

plus the fine-grained modification hooks of Chapter 6 (``widen``,
``narrow``, ``with_value``, ``without_value``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.core.errors import PredicateError

#: Predicates whose integer span exceeds this size are not enumerated into
#: individual atoms; bound descriptors are used instead.
MAX_ENUMERATED_SPAN = 4096


class Predicate(ABC):
    """Abstract base class of all predicate intervals."""

    __slots__ = ()

    @abstractmethod
    def matches(self, value: Any) -> bool:
        """Return ``True`` when ``value`` satisfies this predicate."""

    @abstractmethod
    def atoms(self) -> FrozenSet[Hashable]:
        """Finite set of atomic descriptors for distance computation."""

    @abstractmethod
    def signature(self) -> Hashable:
        """Stable, hashable identity used for canonicalisation/caching."""

    @abstractmethod
    def is_satisfiable(self) -> bool:
        """Return ``False`` when no value can ever match."""

    # -- fine-grained modification hooks (Ch. 6) -------------------------

    def widen(self, step: Any) -> "Predicate":
        """Return a relaxed copy admitting strictly more values.

        Subclasses that cannot widen raise :class:`PredicateError`.
        """
        raise PredicateError(f"{type(self).__name__} cannot be widened")

    def narrow(self, step: Any) -> "Predicate":
        """Return a tightened copy admitting strictly fewer values."""
        raise PredicateError(f"{type(self).__name__} cannot be narrowed")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class ValueSet(Predicate):
    """A finite disjunction of discrete values (Eq. 3.2).

    >>> p = ValueSet(["Anna", "Alice"])
    >>> p.matches("Anna"), p.matches("Bob")
    (True, False)
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Any]) -> None:
        vals = frozenset(values)
        if not vals:
            raise PredicateError("ValueSet requires at least one value")
        self.values: FrozenSet[Any] = vals

    def matches(self, value: Any) -> bool:
        return value in self.values

    def atoms(self) -> FrozenSet[Hashable]:
        return self.values

    def signature(self) -> Hashable:
        return ("values", tuple(sorted(self.values, key=repr)))

    def is_satisfiable(self) -> bool:
        return bool(self.values)

    def with_value(self, value: Any) -> "ValueSet":
        """Relaxation: add one more admissible value."""
        return ValueSet(self.values | {value})

    def without_value(self, value: Any) -> "ValueSet":
        """Concretisation: remove one admissible value.

        Raises :class:`PredicateError` when removal would empty the set.
        """
        remaining = self.values - {value}
        if not remaining:
            raise PredicateError("removing the last value of a ValueSet")
        return ValueSet(remaining)

    def __repr__(self) -> str:
        inner = " OR ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"ValueSet({inner})"


class Interval(Predicate):
    """A numeric predicate interval with open or closed bounds.

    ``Interval(1, 4, low_open=True, high_open=True)`` models ``1 < x < 4``
    (the thesis' ``age in (1;4)`` example, which admits the integer values
    2 and 3).  Unbounded sides use ``-math.inf`` / ``math.inf``.

    ``integral=True`` declares the attribute domain to be the integers,
    enabling value enumeration for small spans (used by ``atoms``).
    """

    __slots__ = ("low", "high", "low_open", "high_open", "integral")

    def __init__(
        self,
        low: float,
        high: float,
        low_open: bool = False,
        high_open: bool = False,
        integral: bool = True,
    ) -> None:
        if math.isnan(low) or math.isnan(high):
            raise PredicateError("interval bounds must not be NaN")
        if low > high:
            raise PredicateError(f"empty interval: low={low!r} > high={high!r}")
        self.low = low
        self.high = high
        self.low_open = bool(low_open)
        self.high_open = bool(high_open)
        self.integral = bool(integral)

    # -- helpers ----------------------------------------------------------

    def _int_bounds(self) -> Tuple[int, int]:
        """Inclusive integer bounds of the admitted values."""
        lo = self.low + 1 if self.low_open and float(self.low).is_integer() else self.low
        hi = self.high - 1 if self.high_open and float(self.high).is_integer() else self.high
        return math.ceil(lo), math.floor(hi)

    def matches(self, value: Any) -> bool:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.low_open:
            if not value > self.low:
                return False
        elif not value >= self.low:
            return False
        if self.high_open:
            return value < self.high
        return value <= self.high

    def atoms(self) -> FrozenSet[Hashable]:
        if self.integral and math.isfinite(self.low) and math.isfinite(self.high):
            lo, hi = self._int_bounds()
            if hi - lo + 1 <= MAX_ENUMERATED_SPAN:
                return frozenset(range(lo, hi + 1))
        bracket_lo = "(" if self.low_open else "["
        bracket_hi = ")" if self.high_open else "]"
        return frozenset({f"{bracket_lo}{self.low}", f"{self.high}{bracket_hi}"})

    def signature(self) -> Hashable:
        return (
            "interval",
            self.low,
            self.high,
            self.low_open,
            self.high_open,
            self.integral,
        )

    def is_satisfiable(self) -> bool:
        if self.low < self.high:
            return True
        if self.low == self.high:
            if self.low_open or self.high_open:
                return False
            return True
        return False

    def widen(self, step: Any) -> "Interval":
        """Relaxation: move both bounds outwards by ``step``."""
        if step <= 0:
            raise PredicateError("widen step must be positive")
        low = self.low - step if math.isfinite(self.low) else self.low
        high = self.high + step if math.isfinite(self.high) else self.high
        return Interval(low, high, self.low_open, self.high_open, self.integral)

    def narrow(self, step: Any) -> "Interval":
        """Concretisation: move both bounds inwards by ``step``.

        Raises :class:`PredicateError` when the interval would empty.
        """
        if step <= 0:
            raise PredicateError("narrow step must be positive")
        low = self.low + step if math.isfinite(self.low) else self.low
        high = self.high - step if math.isfinite(self.high) else self.high
        if low > high:
            raise PredicateError("narrowing would empty the interval")
        candidate = Interval(low, high, self.low_open, self.high_open, self.integral)
        if not candidate.is_satisfiable():
            raise PredicateError("narrowing would empty the interval")
        return candidate

    def __repr__(self) -> str:
        bracket_lo = "(" if self.low_open else "["
        bracket_hi = ")" if self.high_open else "]"
        return f"Interval{bracket_lo}{self.low}; {self.high}{bracket_hi}"


def equals(value: Any) -> ValueSet:
    """Shorthand for the equality predicate ``attr = value``."""
    return ValueSet([value])


def one_of(*values: Any) -> ValueSet:
    """Shorthand for ``attr = v1 OR v2 OR ...``."""
    return ValueSet(values)


def between(
    low: float,
    high: float,
    low_open: bool = False,
    high_open: bool = False,
    integral: bool = True,
) -> Interval:
    """Shorthand for a bounded numeric predicate interval."""
    return Interval(low, high, low_open, high_open, integral)


def at_least(low: float, integral: bool = True) -> Interval:
    """Shorthand for ``attr >= low``."""
    return Interval(low, math.inf, False, True, integral)


def at_most(high: float, integral: bool = True) -> Interval:
    """Shorthand for ``attr <= high``."""
    return Interval(-math.inf, high, True, False, integral)


def predicate_distance(a: Optional[Predicate], b: Optional[Predicate]) -> float:
    """Modified-Hausdorff distance between two predicate intervals.

    ``None`` stands for a predicate that is absent from one of the two
    queries; per Algorithm 1 a predicate present on only one side
    contributes the maximal distance 1.  The actual set computation lives
    in :mod:`repro.metrics.hausdorff`; this thin wrapper avoids an import
    cycle for callers inside :mod:`repro.core`.
    """
    from repro.metrics.hausdorff import modified_hausdorff

    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return 1.0
    return modified_hausdorff(a.atoms(), b.atoms())
