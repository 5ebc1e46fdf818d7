"""Query modification operations (Table 3.1 and Fig. 3.2).

Every rewriting engine in the library speaks the same vocabulary of
modification operations.  An operation is an immutable description of one
change; :meth:`Modification.apply` returns a *new frozen* query, never
mutating its input.  The child shares every untouched element object with
its (frozen) parent and builds only the element the operation changes
(:meth:`GraphQuery.with_vertex` and friends), so search engines share
parent queries between branches and score a child in O(delta).

Two classes of operations (Sec. 3.2.1):

* **relaxations** remove or weaken constraints (more results expected):
  dropping predicates/edges/vertices/types, adding admissible predicate
  values, widening numeric intervals, admitting both edge directions;
* **concretisations** add or strengthen constraints (fewer results
  expected): removing admissible values, narrowing intervals, adding new
  predicates, restricting type sets, fixing a direction, adding edges.

The *coarse-grained* engine of Chapter 5 uses only whole-constraint
relaxations; the *fine-grained* engine of Chapter 6 additionally uses the
value-level operations.  :class:`AttributeDomain` supplies data-driven
value proposals for the relaxing/concretising generators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import PredicateError, RewritingError
from repro.core.graph import PropertyGraph
from repro.core.predicates import Interval, Predicate, ValueSet
from repro.core.query import (
    BOTH_DIRECTIONS,
    Direction,
    GraphQuery,
    QueryEdge,
    QueryVertex,
)

#: Element reference: ``("vertex", vid)`` or ``("edge", eid)``.
ElementRef = Tuple[str, int]


class Modification(ABC):
    """One atomic change to a graph query."""

    #: ``True`` for relaxations, ``False`` for concretisations.
    is_relaxation: bool = True

    @property
    @abstractmethod
    def target(self) -> ElementRef:
        """The query element this operation touches (for preferences)."""

    @abstractmethod
    def apply(self, query: GraphQuery) -> GraphQuery:
        """Return a new frozen query with the change applied.

        Raises :class:`RewritingError` when the operation is no longer
        applicable to ``query`` (e.g. the element was already removed by
        an earlier change on the same search branch).
        """

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description."""

    @abstractmethod
    def signature(self) -> Hashable:
        """Stable identity used to deduplicate search branches."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Modification):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def _element_predicates(query: GraphQuery, ref: ElementRef) -> Mapping[str, Predicate]:
    kind, ident = ref
    if kind == "vertex":
        if not query.has_vertex(ident):
            raise RewritingError(f"vertex {ident} no longer in query")
        return query.vertex(ident).predicates
    if kind == "edge":
        return _edge(query, ident).predicates
    raise RewritingError(f"unknown element kind {kind!r}")


def _edge(query: GraphQuery, eid: int) -> QueryEdge:
    if not query.has_edge(eid):
        raise RewritingError(f"edge {eid} no longer in query")
    return query.edge(eid)


def _with_predicates(
    query: GraphQuery, ref: ElementRef, predicates: Dict[str, Predicate]
) -> GraphQuery:
    """``query`` with the element's predicate map replaced."""
    kind, ident = ref
    if kind == "vertex":
        return query.with_vertex(QueryVertex(ident, predicates))
    return _with_edge(query, query.edge(ident), predicates=predicates)


def _with_edge(query: GraphQuery, edge: QueryEdge, **changes: Any) -> GraphQuery:
    """``query`` with ``edge`` rebuilt around the changed fields."""
    fields = {
        "types": edge.types,
        "directions": edge.directions,
        "predicates": edge.predicates,
        **changes,
    }
    return query.with_edge(QueryEdge(edge.eid, edge.source, edge.target, **fields))


# --------------------------------------------------------------------------
# Coarse-grained relaxations (Ch. 5)
# --------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class DropPredicate(Modification):
    """Relaxation: remove a whole predicate interval (Table 3.1)."""

    element: ElementRef
    attr: str
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return self.element

    def apply(self, query: GraphQuery) -> GraphQuery:
        preds = _element_predicates(query, self.element)
        if self.attr not in preds:
            raise RewritingError(f"{self.element} has no predicate {self.attr!r}")
        rest = {attr: pred for attr, pred in preds.items() if attr != self.attr}
        return _with_predicates(query, self.element, rest)

    def describe(self) -> str:
        kind, ident = self.element
        return f"drop predicate {self.attr!r} from {kind} {ident}"

    def signature(self) -> Hashable:
        return ("drop-pred", self.element, self.attr)


@dataclass(frozen=True, repr=False)
class DropEdge(Modification):
    """Relaxation: remove a query edge (edge deletion, Table 3.1)."""

    eid: int
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return ("edge", self.eid)

    def apply(self, query: GraphQuery) -> GraphQuery:
        return query.without_edge(_edge(query, self.eid).eid)

    def describe(self) -> str:
        return f"drop edge {self.eid}"

    def signature(self) -> Hashable:
        return ("drop-edge", self.eid)


@dataclass(frozen=True, repr=False)
class DropVertex(Modification):
    """Relaxation: remove a vertex together with its incident edges.

    The complex operation "vertex exclusion" of Fig. 3.2.
    """

    vid: int
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return ("vertex", self.vid)

    def apply(self, query: GraphQuery) -> GraphQuery:
        if not query.has_vertex(self.vid):
            raise RewritingError(f"vertex {self.vid} no longer in query")
        if query.num_vertices <= 1:
            raise RewritingError("refusing to remove the last query vertex")
        return query.without_vertex(self.vid)

    def describe(self) -> str:
        return f"drop vertex {self.vid} (with incident edges)"

    def signature(self) -> Hashable:
        return ("drop-vertex", self.vid)


@dataclass(frozen=True, repr=False)
class DropTypeConstraint(Modification):
    """Relaxation: remove an edge's type set (type deletion, Table 3.1)."""

    eid: int
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return ("edge", self.eid)

    def apply(self, query: GraphQuery) -> GraphQuery:
        edge = _edge(query, self.eid)
        if edge.types is None:
            raise RewritingError(f"edge {self.eid} has no type constraint")
        return _with_edge(query, edge, types=None)

    def describe(self) -> str:
        return f"drop type constraint of edge {self.eid}"

    def signature(self) -> Hashable:
        return ("drop-types", self.eid)


@dataclass(frozen=True, repr=False)
class RelaxDirection(Modification):
    """Relaxation: admit both orientations (direction insertion)."""

    eid: int
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return ("edge", self.eid)

    def apply(self, query: GraphQuery) -> GraphQuery:
        edge = _edge(query, self.eid)
        if edge.directions == BOTH_DIRECTIONS:
            raise RewritingError(f"edge {self.eid} already matches both directions")
        return _with_edge(query, edge, directions=BOTH_DIRECTIONS)

    def describe(self) -> str:
        return f"relax direction of edge {self.eid} to both"

    def signature(self) -> Hashable:
        return ("relax-dir", self.eid)


# --------------------------------------------------------------------------
# Fine-grained operations (Ch. 6)
# --------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class AddPredicateValue(Modification):
    """Relaxation: admit one more value in a :class:`ValueSet` predicate."""

    element: ElementRef
    attr: str
    value: Any
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return self.element

    def apply(self, query: GraphQuery) -> GraphQuery:
        preds = _element_predicates(query, self.element)
        pred = preds.get(self.attr)
        if not isinstance(pred, ValueSet):
            raise RewritingError(f"{self.element}.{self.attr} is not a ValueSet")
        if pred.matches(self.value):
            raise RewritingError(f"{self.value!r} already admitted")
        changed = {**preds, self.attr: pred.with_value(self.value)}
        return _with_predicates(query, self.element, changed)

    def describe(self) -> str:
        kind, ident = self.element
        return f"admit {self.attr}={self.value!r} on {kind} {ident}"

    def signature(self) -> Hashable:
        return ("add-value", self.element, self.attr, repr(self.value))


@dataclass(frozen=True, repr=False)
class RemovePredicateValue(Modification):
    """Concretisation: retract one admissible value from a ValueSet."""

    element: ElementRef
    attr: str
    value: Any
    is_relaxation = False

    @property
    def target(self) -> ElementRef:
        return self.element

    def apply(self, query: GraphQuery) -> GraphQuery:
        preds = _element_predicates(query, self.element)
        pred = preds.get(self.attr)
        if not isinstance(pred, ValueSet):
            raise RewritingError(f"{self.element}.{self.attr} is not a ValueSet")
        try:
            changed = {**preds, self.attr: pred.without_value(self.value)}
        except PredicateError as exc:
            raise RewritingError(str(exc)) from exc
        return _with_predicates(query, self.element, changed)

    def describe(self) -> str:
        kind, ident = self.element
        return f"retract {self.attr}={self.value!r} on {kind} {ident}"

    def signature(self) -> Hashable:
        return ("remove-value", self.element, self.attr, repr(self.value))


@dataclass(frozen=True, repr=False)
class WidenInterval(Modification):
    """Relaxation: move both bounds of an :class:`Interval` outwards."""

    element: ElementRef
    attr: str
    step: float
    is_relaxation = True

    @property
    def target(self) -> ElementRef:
        return self.element

    def apply(self, query: GraphQuery) -> GraphQuery:
        preds = _element_predicates(query, self.element)
        pred = preds.get(self.attr)
        if not isinstance(pred, Interval):
            raise RewritingError(f"{self.element}.{self.attr} is not an Interval")
        changed = {**preds, self.attr: pred.widen(self.step)}
        return _with_predicates(query, self.element, changed)

    def describe(self) -> str:
        kind, ident = self.element
        return f"widen {self.attr} by {self.step} on {kind} {ident}"

    def signature(self) -> Hashable:
        return ("widen", self.element, self.attr, self.step)


@dataclass(frozen=True, repr=False)
class NarrowInterval(Modification):
    """Concretisation: move both bounds of an Interval inwards."""

    element: ElementRef
    attr: str
    step: float
    is_relaxation = False

    @property
    def target(self) -> ElementRef:
        return self.element

    def apply(self, query: GraphQuery) -> GraphQuery:
        preds = _element_predicates(query, self.element)
        pred = preds.get(self.attr)
        if not isinstance(pred, Interval):
            raise RewritingError(f"{self.element}.{self.attr} is not an Interval")
        try:
            changed = {**preds, self.attr: pred.narrow(self.step)}
        except PredicateError as exc:
            raise RewritingError(str(exc)) from exc
        return _with_predicates(query, self.element, changed)

    def describe(self) -> str:
        kind, ident = self.element
        return f"narrow {self.attr} by {self.step} on {kind} {ident}"

    def signature(self) -> Hashable:
        return ("narrow", self.element, self.attr, self.step)


@dataclass(frozen=True, repr=False)
class AddPredicate(Modification):
    """Concretisation: constrain a previously unconstrained attribute."""

    element: ElementRef
    attr: str
    predicate: Predicate
    is_relaxation = False

    @property
    def target(self) -> ElementRef:
        return self.element

    def apply(self, query: GraphQuery) -> GraphQuery:
        preds = _element_predicates(query, self.element)
        if self.attr in preds:
            raise RewritingError(f"{self.element}.{self.attr} already constrained")
        return _with_predicates(query, self.element, {**preds, self.attr: self.predicate})

    def describe(self) -> str:
        kind, ident = self.element
        return f"constrain {self.attr} to {self.predicate!r} on {kind} {ident}"

    def signature(self) -> Hashable:
        return ("add-pred", self.element, self.attr, self.predicate.signature())


@dataclass(frozen=True, repr=False)
class RestrictDirection(Modification):
    """Concretisation: fix an edge that matches both orientations."""

    eid: int
    direction: Direction
    is_relaxation = False

    @property
    def target(self) -> ElementRef:
        return ("edge", self.eid)

    def apply(self, query: GraphQuery) -> GraphQuery:
        edge = _edge(query, self.eid)
        if edge.directions != BOTH_DIRECTIONS:
            raise RewritingError(f"edge {self.eid} is already directed")
        return _with_edge(query, edge, directions=frozenset({self.direction}))

    def describe(self) -> str:
        return f"restrict edge {self.eid} to {self.direction.value}"

    def signature(self) -> Hashable:
        return ("restrict-dir", self.eid, self.direction.value)


# --------------------------------------------------------------------------
# Data-driven value proposals
# --------------------------------------------------------------------------


class AttributeDomain:
    """Value statistics of the data graph, for proposing modifications.

    Relaxing a predicate needs a *new admissible value* that actually
    occurs in the data; concretising needs plausible constraint values.
    The domain reads attribute histograms off the graph's value indexes
    lazily and caches them, with what it derives from each: the values by
    falling frequency and the numeric step, per ``(kind, attr)``.
    """

    def __init__(self, graph: PropertyGraph, max_proposals: int = 3) -> None:
        self.graph = graph
        self.max_proposals = max_proposals
        self._vertex_counters: Dict[str, Counter] = {}
        self._edge_counters: Dict[str, Counter] = {}
        self._by_frequency: Dict[Tuple[str, str], List[Any]] = {}
        self._steps: Dict[Tuple[str, str], float] = {}
        self._attr_names: Optional[List[str]] = None

    def common_vertex_attrs(self, k: int = 4) -> List[str]:
        """Most frequent vertex attribute *names* (for AddPredicate ops).

        Used as the default pool of constrainable attributes when a
        why-so-many query offers no existing predicate to tighten.
        """
        if self._attr_names is None:
            counter: Counter = Counter()
            for vid in self.graph.vertices():
                counter.update(self.graph.vertex_attributes(vid).keys())
            self._attr_names = [name for name, _ in counter.most_common()]
        return self._attr_names[:k]

    def vertex_values(self, attr: str) -> Counter:
        """Histogram of a vertex attribute over the whole graph."""
        counter = self._vertex_counters.get(attr)
        if counter is None:
            counter = Counter(self.graph.vertex_value_counts(attr))
            self._vertex_counters[attr] = counter
        return counter

    def edge_values(self, attr: str) -> Counter:
        """Histogram of an edge attribute over the whole graph."""
        counter = self._edge_counters.get(attr)
        if counter is None:
            counter = Counter(self.graph.edge_value_counts(attr))
            self._edge_counters[attr] = counter
        return counter

    def values_for(self, ref: ElementRef, attr: str) -> Counter:
        kind, _ = ref
        return self.vertex_values(attr) if kind == "vertex" else self.edge_values(attr)

    def _values_by_frequency(self, ref: ElementRef, attr: str) -> List[Any]:
        """The attribute's data values, most frequent first (ties in
        histogram order, as ``Counter.most_common`` breaks them)."""
        key = (ref[0], attr)
        values = self._by_frequency.get(key)
        if values is None:
            values = [v for v, _ in self.values_for(ref, attr).most_common()]
            self._by_frequency[key] = values
        return values

    def propose_additional_values(
        self, ref: ElementRef, attr: str, pred: ValueSet
    ) -> List[Any]:
        """Most frequent data values not yet admitted by ``pred``."""
        proposals = [v for v in self._values_by_frequency(ref, attr) if not pred.matches(v)]
        return proposals[: self.max_proposals]

    def propose_constraint_values(self, ref: ElementRef, attr: str) -> List[Any]:
        """Most frequent data values to constrain an attribute to."""
        return self._values_by_frequency(ref, attr)[: self.max_proposals]

    def numeric_step(self, ref: ElementRef, attr: str) -> float:
        """Typical bound step for interval widening (median gap, >= 1)."""
        key = (ref[0], attr)
        step = self._steps.get(key)
        if step is None:
            values = sorted(v for v in self.values_for(ref, attr) if isinstance(v, (int, float)))
            gaps = sorted(b - a for a, b in zip(values, values[1:]) if b > a)
            step = float(max(1.0, gaps[len(gaps) // 2])) if gaps else 1.0
            self._steps[key] = step
        return step


# --------------------------------------------------------------------------
# Applicable-operation generators
# --------------------------------------------------------------------------


def coarse_relaxations(query: GraphQuery) -> List[Modification]:
    """All whole-constraint relaxations applicable to ``query`` (Ch. 5).

    Ordering is deterministic: predicates by element id/attribute, then
    type constraints, directions, edges, vertices.
    """
    ops: List[Modification] = []
    for v in sorted(query.vertices(), key=lambda v: v.vid):
        for attr in sorted(v.predicates):
            ops.append(DropPredicate(("vertex", v.vid), attr))
    for e in sorted(query.edges(), key=lambda e: e.eid):
        for attr in sorted(e.predicates):
            ops.append(DropPredicate(("edge", e.eid), attr))
        if e.types is not None:
            ops.append(DropTypeConstraint(e.eid))
        if e.directions != BOTH_DIRECTIONS:
            ops.append(RelaxDirection(e.eid))
    for e in sorted(query.edges(), key=lambda e: e.eid):
        ops.append(DropEdge(e.eid))
    if query.num_vertices > 1:
        for v in sorted(query.vertices(), key=lambda v: v.vid):
            ops.append(DropVertex(v.vid))
    return ops


def fine_relaxations(
    query: GraphQuery,
    domain: AttributeDomain,
    include_topology: bool = False,
) -> List[Modification]:
    """Value-level relaxations (Ch. 6), optionally with topology changes."""
    ops: List[Modification] = []
    step_cache: Dict[Tuple[ElementRef, str], float] = {}

    def element_ops(ref: ElementRef, predicates: Mapping[str, Predicate]) -> None:
        for attr in sorted(predicates):
            pred = predicates[attr]
            if isinstance(pred, ValueSet):
                for value in domain.propose_additional_values(ref, attr, pred):
                    ops.append(AddPredicateValue(ref, attr, value))
            elif isinstance(pred, Interval):
                step = step_cache.setdefault(
                    (ref, attr), domain.numeric_step(ref, attr)
                )
                # Two granularities: a one-step widening may reach no new
                # data value and be discarded as non-contributing
                # (Sec. 6.3.2), so a coarser jump keeps the branch alive.
                ops.append(WidenInterval(ref, attr, step))
                ops.append(WidenInterval(ref, attr, step * 4))

    for v in sorted(query.vertices(), key=lambda v: v.vid):
        element_ops(("vertex", v.vid), v.predicates)
    for e in sorted(query.edges(), key=lambda e: e.eid):
        element_ops(("edge", e.eid), e.predicates)
        if e.directions != BOTH_DIRECTIONS:
            ops.append(RelaxDirection(e.eid))
    if include_topology:
        for e in sorted(query.edges(), key=lambda e: e.eid):
            ops.append(DropEdge(e.eid))
        for v in sorted(query.vertices(), key=lambda v: v.vid):
            if query.num_vertices > 1:
                ops.append(DropVertex(v.vid))
    return ops


def fine_concretisations(
    query: GraphQuery,
    domain: AttributeDomain,
    constrainable_attrs: Optional[Iterable[str]] = None,
) -> List[Modification]:
    """Value-level concretisations (Ch. 6, why-so-many direction).

    ``constrainable_attrs`` limits which new attributes may be constrained
    via :class:`AddPredicate`; by default, none are added and only existing
    predicates are tightened (retracting values, narrowing intervals,
    fixing directions).
    """
    ops: List[Modification] = []

    def element_ops(ref: ElementRef, predicates: Mapping[str, Predicate]) -> None:
        for attr in sorted(predicates):
            pred = predicates[attr]
            if isinstance(pred, ValueSet) and len(pred.values) > 1:
                for value in sorted(pred.values, key=repr):
                    ops.append(RemovePredicateValue(ref, attr, value))
            elif isinstance(pred, Interval):
                step = domain.numeric_step(ref, attr)
                low = pred.low if math.isfinite(pred.low) else None
                high = pred.high if math.isfinite(pred.high) else None
                if low is not None and high is not None:
                    if high - low > step:
                        ops.append(NarrowInterval(ref, attr, step))
                    if high - low > 4 * step:
                        ops.append(NarrowInterval(ref, attr, step * 2))
        if constrainable_attrs:
            for attr in constrainable_attrs:
                if attr in predicates:
                    continue
                for value in domain.propose_constraint_values(ref, attr):
                    ops.append(AddPredicate(ref, attr, ValueSet([value])))

    for v in sorted(query.vertices(), key=lambda v: v.vid):
        element_ops(("vertex", v.vid), v.predicates)
    for e in sorted(query.edges(), key=lambda e: e.eid):
        element_ops(("edge", e.eid), e.predicates)
        if e.directions == BOTH_DIRECTIONS:
            ops.append(RestrictDirection(e.eid, Direction.FORWARD))
            ops.append(RestrictDirection(e.eid, Direction.BACKWARD))
    return ops
