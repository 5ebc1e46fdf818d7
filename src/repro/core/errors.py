"""Exception hierarchy for the repro library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are grouped by subsystem:
graph storage, query model, matching, and the why-query explanation layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for property-graph storage errors."""


class UnknownVertexError(GraphError, KeyError):
    """A vertex identifier does not exist in the graph."""

    def __init__(self, vid: int) -> None:
        super().__init__(f"unknown vertex id: {vid!r}")
        self.vid = vid


class UnknownEdgeError(GraphError, KeyError):
    """An edge identifier does not exist in the graph."""

    def __init__(self, eid: int) -> None:
        super().__init__(f"unknown edge id: {eid!r}")
        self.eid = eid


class DuplicateElementError(GraphError, ValueError):
    """An explicit vertex/edge identifier collides with an existing one."""


class QueryError(ReproError):
    """Base class for graph-query model errors."""


class UnknownQueryVertexError(QueryError, KeyError):
    """A query-vertex identifier does not exist in the query."""

    def __init__(self, vid: int) -> None:
        super().__init__(f"unknown query vertex id: {vid!r}")
        self.vid = vid


class UnknownQueryEdgeError(QueryError, KeyError):
    """A query-edge identifier does not exist in the query."""

    def __init__(self, eid: int) -> None:
        super().__init__(f"unknown query edge id: {eid!r}")
        self.eid = eid


class MalformedQueryError(QueryError, ValueError):
    """A query violates a structural invariant (dangling edges, empty

    direction sets, unsatisfiable predicates, ...).
    """


class FrozenQueryError(QueryError, TypeError):
    """A mutator was called on a frozen query or query element.

    Also a :class:`TypeError`, which is what a write through a frozen
    element's read-only ``predicates`` mapping raises, so one ``except``
    covers both.
    """


class PredicateError(ReproError, ValueError):
    """A predicate was constructed with inconsistent arguments."""


class MatchingError(ReproError):
    """Base class for pattern-matching errors."""


class ExplanationError(ReproError):
    """Base class for errors in the explanation generators (Ch. 4-6)."""


class RewritingError(ExplanationError):
    """A query-rewriting engine could not make progress."""


class BudgetExhaustedError(ExplanationError):
    """An explanation search ran out of its evaluation budget.

    Engines normally return their best-so-far answer instead of raising;
    this error is raised only when ``strict=True`` is requested.
    """
