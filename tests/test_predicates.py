"""Unit tests for predicate intervals (Sec. 3.2.2 value model)."""

import math

import pytest

from repro.core.errors import PredicateError
from repro.core.predicates import (
    Interval,
    ValueSet,
    at_least,
    at_most,
    between,
    equals,
    one_of,
    predicate_distance,
)


class TestValueSet:
    def test_matches_member(self):
        p = one_of("Anna", "Alice")
        assert p.matches("Anna")
        assert p.matches("Alice")

    def test_rejects_non_member(self):
        assert not one_of("Anna").matches("Bob")

    def test_empty_value_set_rejected(self):
        with pytest.raises(PredicateError):
            ValueSet([])

    def test_atoms_are_the_values(self):
        assert one_of("a", "b").atoms() == frozenset({"a", "b"})

    def test_equality_ignores_construction_order(self):
        assert one_of("a", "b") == one_of("b", "a")
        assert hash(one_of("a", "b")) == hash(one_of("b", "a"))

    def test_with_value_relaxes(self):
        p = equals("Anna").with_value("Alice")
        assert p.matches("Alice") and p.matches("Anna")

    def test_without_value_concretises(self):
        p = one_of("Anna", "Alice").without_value("Alice")
        assert p.matches("Anna") and not p.matches("Alice")

    def test_without_last_value_raises(self):
        with pytest.raises(PredicateError):
            equals("Anna").without_value("Anna")

    def test_is_satisfiable(self):
        assert equals(1).is_satisfiable()

    def test_widen_not_supported(self):
        with pytest.raises(PredicateError):
            equals("x").widen(1)

    def test_mixed_type_values(self):
        p = one_of(1, "one")
        assert p.matches(1) and p.matches("one") and not p.matches(2)


class TestInterval:
    def test_open_interval_semantics(self):
        # The thesis example: 1 < age < 4 admits {2, 3}.
        p = Interval(1, 4, low_open=True, high_open=True)
        assert not p.matches(1)
        assert p.matches(2) and p.matches(3)
        assert not p.matches(4)

    def test_closed_interval_semantics(self):
        p = between(2000, 2005)
        assert p.matches(2000) and p.matches(2005)
        assert not p.matches(1999) and not p.matches(2006)

    def test_open_interval_atoms_enumerate_integers(self):
        assert Interval(1, 4, True, True).atoms() == frozenset({2, 3})

    def test_closed_interval_atoms(self):
        assert between(3, 5).atoms() == frozenset({3, 4, 5})

    def test_float_values_match_inside(self):
        p = between(1, 4, integral=False)
        assert p.matches(2.5)

    def test_bool_is_not_numeric(self):
        assert not between(0, 1).matches(True)

    def test_non_numeric_rejected(self):
        assert not between(0, 1).matches("1")

    def test_unbounded_at_least(self):
        p = at_least(10)
        assert p.matches(10) and p.matches(10**9)
        assert not p.matches(9)

    def test_unbounded_at_most(self):
        p = at_most(10)
        assert p.matches(10) and p.matches(-(10**9))
        assert not p.matches(11)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(PredicateError):
            Interval(5, 4)

    def test_nan_rejected(self):
        with pytest.raises(PredicateError):
            Interval(math.nan, 4)

    def test_widen_extends_both_sides(self):
        p = between(2000, 2005).widen(2)
        assert p.matches(1998) and p.matches(2007)
        assert not p.matches(1997)

    def test_widen_requires_positive_step(self):
        with pytest.raises(PredicateError):
            between(0, 1).widen(0)

    def test_narrow_shrinks_both_sides(self):
        p = between(2000, 2010).narrow(2)
        assert p.matches(2002) and p.matches(2008)
        assert not p.matches(2001) and not p.matches(2009)

    def test_narrow_to_empty_raises(self):
        with pytest.raises(PredicateError):
            between(2000, 2002).narrow(2)

    def test_degenerate_point_interval(self):
        p = between(5, 5)
        assert p.is_satisfiable() and p.matches(5)

    def test_open_degenerate_unsatisfiable(self):
        assert not Interval(5, 5, high_open=True).is_satisfiable()

    def test_large_span_uses_bound_descriptors(self):
        p = between(0, 10**7)
        atoms = p.atoms()
        assert len(atoms) == 2
        assert all(isinstance(a, str) for a in atoms)

    def test_unbounded_atoms_are_descriptors(self):
        atoms = at_least(3).atoms()
        assert len(atoms) == 2


class TestPredicateDistance:
    def test_identical_predicates(self):
        assert predicate_distance(equals("x"), equals("x")) == 0.0

    def test_disjoint_predicates(self):
        assert predicate_distance(equals("x"), equals("y")) == 1.0

    def test_superset_graded(self):
        # {university} vs {university, college}: the thesis' 1/2 example.
        d = predicate_distance(equals("university"), one_of("university", "college"))
        assert d == pytest.approx(0.5)

    def test_missing_side_is_maximal(self):
        assert predicate_distance(None, equals("x")) == 1.0
        assert predicate_distance(equals("x"), None) == 1.0

    def test_both_missing_is_zero(self):
        assert predicate_distance(None, None) == 0.0

    def test_interval_vs_extended_interval(self):
        d = predicate_distance(equals(2003), one_of(2003, 2004))
        assert d == pytest.approx(0.5)
