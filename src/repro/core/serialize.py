"""JSON-friendly (de)serialisation of graphs, queries and results.

A downstream system needs to store failed queries, ship explanations to
a frontend, or check query variants into version control.  This module
maps the core model onto plain dicts/lists (JSON-compatible when the
attribute values are) and back, losslessly:

* :func:`graph_to_dict` / :func:`graph_from_dict`
* :func:`query_to_dict` / :func:`query_from_dict`, over the per-element
  :func:`vertex_to_dict` / :func:`edge_to_dict` and their inverses
  (the protocol's candidate difference form lists the same elements)
* :func:`result_set_to_dict` / :func:`result_set_from_dict`

Numeric predicate bounds serialise infinities as the strings ``"inf"`` /
``"-inf"`` so the output stays valid JSON.

Snapshot exactness
------------------

Graph snapshots round-trip *evaluation-visible* state exactly, which is
what the :class:`~repro.shard.ProcessExecutor` worker processes rely on
when they rebuild a long-lived
:class:`~repro.exec.context.ExecutionContext` from a shipped snapshot:

* elements are emitted in **insertion order** (format 2), so the rebuilt
  typed-adjacency lists -- and therefore the matcher's deterministic
  enumeration order and ``steps`` counters -- are identical to the
  source graph's even when explicit ids were assigned out of order;
* the mutation :attr:`~repro.core.graph.PropertyGraph.version` is
  carried in the payload and restored on rebuild, so version-keyed
  caches and the coordinator's staleness checks agree across processes.

Wire forms
----------

:func:`query_to_wire` / :func:`query_from_wire` are the compact, *
hashable* siblings of the dict forms: nested tuples that pickle small
and double as cache keys.  The :class:`~repro.shard.ProcessExecutor`
ships every candidate query to its workers as a wire form, and each
worker memoises deserialisation by that same tuple.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Tuple

from repro.core.errors import MalformedQueryError
from repro.core.graph import PropertyGraph
from repro.core.predicates import Interval, Predicate, ValueSet
from repro.core.query import Direction, GraphQuery, QueryEdge, QueryVertex
from repro.core.result import ResultGraph, ResultSet

#: Format 2 emits vertices/edges in insertion order and carries the
#: graph mutation version; format-1 payloads (sorted by id, no version)
#: are still readable.
FORMAT_VERSION = 2


# -- predicates -----------------------------------------------------------------


def predicate_to_dict(pred: Predicate) -> Dict[str, Any]:
    if isinstance(pred, ValueSet):
        return {"kind": "values", "values": sorted(pred.values, key=repr)}
    if isinstance(pred, Interval):
        return {
            "kind": "interval",
            "low": _bound_out(pred.low),
            "high": _bound_out(pred.high),
            "low_open": pred.low_open,
            "high_open": pred.high_open,
            "integral": pred.integral,
        }
    raise TypeError(f"cannot serialise predicate type {type(pred).__name__}")


def predicate_from_dict(data: Mapping[str, Any]) -> Predicate:
    kind = data.get("kind")
    if kind == "values":
        return ValueSet(data["values"])
    if kind == "interval":
        return Interval(
            _bound_in(data["low"]),
            _bound_in(data["high"]),
            data.get("low_open", False),
            data.get("high_open", False),
            data.get("integral", True),
        )
    raise MalformedQueryError(f"unknown predicate kind {kind!r}")


def _bound_out(value: float) -> Any:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _bound_in(value: Any) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


# -- compact wire forms (hashable tuples, for cross-process shipping) -----------


def predicate_to_wire(pred: Predicate) -> Tuple:
    """Compact hashable form of a predicate (pickles small)."""
    if isinstance(pred, ValueSet):
        return ("v", tuple(sorted(pred.values, key=repr)))
    if isinstance(pred, Interval):
        return ("i", pred.low, pred.high, pred.low_open, pred.high_open, pred.integral)
    raise TypeError(f"cannot serialise predicate type {type(pred).__name__}")


def predicate_from_wire(wire: Tuple) -> Predicate:
    kind = wire[0]
    if kind == "v":
        return ValueSet(wire[1])
    if kind == "i":
        return Interval(wire[1], wire[2], wire[3], wire[4], wire[5])
    raise MalformedQueryError(f"unknown wire predicate kind {kind!r}")


def query_to_wire(query: GraphQuery) -> Tuple:
    """Compact hashable form of a query.

    The tuple is deterministic for a given query signature, so it doubles
    as the worker-side deserialisation cache key: a rewriting frontier
    re-evaluating the same variant ships the identical wire form and the
    worker rebuilds the :class:`~repro.core.query.GraphQuery` only once.
    """
    return (
        "q",
        FORMAT_VERSION,
        tuple(
            (
                v.vid,
                tuple(
                    (attr, predicate_to_wire(p))
                    for attr, p in sorted(v.predicates.items())
                ),
            )
            for v in sorted(query.vertices(), key=lambda v: v.vid)
        ),
        tuple(
            (
                e.eid,
                e.source,
                e.target,
                tuple(sorted(e.types)) if e.types is not None else None,
                tuple(sorted(d.value for d in e.directions)),
                tuple(
                    (attr, predicate_to_wire(p))
                    for attr, p in sorted(e.predicates.items())
                ),
            )
            for e in sorted(query.edges(), key=lambda e: e.eid)
        ),
    )


def query_from_wire(wire: Tuple) -> GraphQuery:
    """Inverse of :func:`query_to_wire`."""
    if not isinstance(wire, tuple) or len(wire) != 4 or wire[0] != "q":
        raise MalformedQueryError(f"not a wire-form query: {wire!r}")
    _, wire_format, vertices, edges = wire
    if not isinstance(wire_format, int) or wire_format > FORMAT_VERSION:
        # a newer coordinator's wire form must be rejected, never
        # misparsed with this format's assumptions
        raise MalformedQueryError(
            f"unsupported wire format {wire_format!r} (this side speaks "
            f"<= {FORMAT_VERSION})"
        )
    query = GraphQuery()
    try:
        for vid, preds in vertices:
            query.add_vertex(
                vid=vid,
                predicates={attr: predicate_from_wire(p) for attr, p in preds},
            )
        for eid, source, target, types, directions, preds in edges:
            query.add_edge(
                source,
                target,
                eid=eid,
                types=types,
                directions=frozenset(Direction(d) for d in directions),
                predicates={attr: predicate_from_wire(p) for attr, p in preds},
            )
    except (TypeError, ValueError) as exc:
        raise MalformedQueryError(f"malformed wire-form query: {exc}") from exc
    query.validate()
    return query


# -- queries ----------------------------------------------------------------------


def _predicates_to_dict(predicates: Mapping[str, Predicate]) -> Dict[str, Any]:
    return {attr: predicate_to_dict(p) for attr, p in sorted(predicates.items())}


def _predicates_from_dict(data: Mapping[str, Any]) -> Dict[str, Predicate]:
    return {attr: predicate_from_dict(p) for attr, p in data.items()}


def _element_id(value: Any) -> int:
    if type(value) is not int:
        raise MalformedQueryError(f"element id must be an int, not {value!r}")
    return value


def vertex_to_dict(vertex: QueryVertex) -> Dict[str, Any]:
    """One query vertex in the element form :func:`query_to_dict` lists."""
    return {"id": vertex.vid, "predicates": _predicates_to_dict(vertex.predicates)}


def edge_to_dict(edge: QueryEdge) -> Dict[str, Any]:
    """One query edge in the element form :func:`query_to_dict` lists."""
    return {
        "id": edge.eid,
        "source": edge.source,
        "target": edge.target,
        "types": sorted(edge.types) if edge.types is not None else None,
        "directions": sorted(d.value for d in edge.directions),
        "predicates": _predicates_to_dict(edge.predicates),
    }


def vertex_from_dict(data: Mapping[str, Any]) -> QueryVertex:
    """Inverse of :func:`vertex_to_dict` (an unfrozen element)."""
    return QueryVertex(
        _element_id(data["id"]), _predicates_from_dict(data.get("predicates", {}))
    )


def edge_from_dict(data: Mapping[str, Any]) -> QueryEdge:
    """Inverse of :func:`edge_to_dict` (an unfrozen element; whether its
    endpoints exist is the enclosing query's check)."""
    return QueryEdge(
        _element_id(data["id"]),
        _element_id(data["source"]),
        _element_id(data["target"]),
        data.get("types"),
        frozenset(Direction(d) for d in data["directions"]),
        _predicates_from_dict(data.get("predicates", {})),
    )


def query_to_dict(query: GraphQuery) -> Dict[str, Any]:
    """Serialise a query; element identifiers are preserved."""
    return {
        "format": FORMAT_VERSION,
        "vertices": [
            vertex_to_dict(v) for v in sorted(query.vertices(), key=lambda v: v.vid)
        ],
        "edges": [edge_to_dict(e) for e in sorted(query.edges(), key=lambda e: e.eid)],
    }


def query_from_dict(data: Mapping[str, Any]) -> GraphQuery:
    """Inverse of :func:`query_to_dict`."""
    query = GraphQuery()
    for item in data.get("vertices", ()):
        vertex = vertex_from_dict(item)
        query.add_vertex(vid=vertex.vid, predicates=vertex.predicates)
    for item in data.get("edges", ()):
        edge = edge_from_dict(item)
        query.add_edge(
            edge.source,
            edge.target,
            eid=edge.eid,
            types=edge.types,
            directions=edge.directions,
            predicates=edge.predicates,
        )
    query.validate()
    return query


# -- graphs ----------------------------------------------------------------------


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialise a property graph (attribute values must be JSON-able).

    Elements are emitted in **insertion order**, not id order: adjacency
    lists are append-ordered, so replaying the elements in any other
    order would rebuild a graph whose typed-adjacency enumeration (and
    therefore the matcher's deterministic ``steps`` trajectory) differs
    whenever explicit ids were assigned out of order.  The mutation
    ``version`` rides along so the rebuilt graph is cache-key compatible
    with the source.
    """
    return {
        "format": FORMAT_VERSION,
        "version": graph.version,
        "vertices": [
            {"id": vid, "attributes": dict(graph.vertex_attributes(vid))}
            for vid in graph.vertices()
        ],
        "edges": [
            {
                "id": record.eid,
                "source": record.source,
                "target": record.target,
                "type": record.type,
                "attributes": dict(record.attributes),
            }
            for record in graph.edges()
        ],
    }


def graph_from_dict(data: Mapping[str, Any]) -> PropertyGraph:
    """Inverse of :func:`graph_to_dict`.

    Replays elements in payload order and restores the serialized
    mutation ``version`` (format >= 2), so the round-trip preserves the
    typed-adjacency-visible state *and* the cache-invalidation identity
    exactly.  Format-1 payloads rebuild fine; their version is whatever
    the replay produced (one bump per element), matching the historical
    behaviour.
    """
    graph = PropertyGraph()
    for vertex in data.get("vertices", ()):
        graph.add_vertex(vid=vertex["id"], **vertex.get("attributes", {}))
    for edge in data.get("edges", ()):
        graph.add_edge(
            edge["source"],
            edge["target"],
            edge["type"],
            eid=edge["id"],
            **edge.get("attributes", {}),
        )
    if "version" in data:
        graph._restore_version(int(data["version"]))
    return graph


# -- results --------------------------------------------------------------------------


def result_set_to_dict(results: ResultSet) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "results": [
            {
                "vertices": {str(q): d for q, d in r.vertex_bindings},
                "edges": {str(q): d for q, d in r.edge_bindings},
            }
            for r in results
        ],
    }


def result_set_from_dict(data: Mapping[str, Any]) -> ResultSet:
    out = ResultSet()
    for item in data.get("results", ()):
        out.add(
            ResultGraph.from_mappings(
                {int(q): d for q, d in item.get("vertices", {}).items()},
                {int(q): d for q, d in item.get("edges", {}).items()},
            )
        )
    return out


# -- cardinality thresholds -----------------------------------------------------


def threshold_to_dict(threshold) -> Dict[str, Any]:
    """JSON form of a :class:`~repro.metrics.cardinality.CardinalityThreshold`."""
    return {"lower": threshold.lower, "upper": threshold.upper}


def threshold_from_dict(data: Mapping[str, Any]):
    """Rebuild a threshold from :func:`threshold_to_dict` output."""
    from repro.metrics.cardinality import CardinalityThreshold

    lower = data.get("lower")
    upper = data.get("upper")
    return CardinalityThreshold(
        lower=None if lower is None else int(lower),
        upper=None if upper is None else int(upper),
    )
