"""Wire protocol shared by the server and the client.

Frame layout
------------

Every message is one **frame**: a 4-byte big-endian unsigned length
prefix followed by that many bytes of UTF-8 JSON encoding one object::

    +----------------+----------------------------------------+
    | length (u32 be)| UTF-8 JSON object (``length`` bytes)   |
    +----------------+----------------------------------------+

The length counts the payload only (not the prefix).  Frames longer than
``MAX_FRAME_BYTES`` are rejected before buffering, so a corrupt prefix
cannot make either side allocate unbounded memory.  JSON-over-frames was
chosen over a binary layout because every payload the service moves
(queries, graphs, reports) already has a canonical JSON dict form in
:mod:`repro.core.serialize`; the frame prefix is what gives us message
boundaries over TCP's byte stream.

A streamed ``candidate`` frame carries its query as the difference from
the request's query (:func:`candidate_to_dict` /
:func:`candidate_from_dict`), in the same per-element form.

:func:`encode_frame` and the incremental :class:`FrameDecoder` are used
verbatim by the asyncio server and by the client, so the protocol
tests' split/coalesced-read cases exercise exactly the production
framing code.

Message types
-------------

Client -> server: ``hello``, ``put_graph``, ``explain``, ``count``,
``match``, ``stats``, ``metrics``, ``slow_queries``, ``cancel``,
``goodbye``, ``shutdown``.
Server -> client: ``welcome``, ``ok``, ``candidate``, ``trace``,
``result``, ``rejected``, ``cancelled``, ``error``, ``goodbye``.

Multiplexing: every request carries a client-chosen ``id``; replies (and
streamed ``candidate`` frames) echo it, so responses may interleave and
complete out of order over one connection.  ``docs/protocol.md`` is the
authoritative description of each message's fields, the quota semantics
and the versioning rules.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Mapping, Optional

from repro.core.errors import ReproError
from repro.core.query import GraphQuery
from repro.core.serialize import (
    edge_from_dict,
    edge_to_dict,
    query_to_dict,
    threshold_to_dict,
    vertex_from_dict,
    vertex_to_dict,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "VOLATILE_REPORT_FIELDS",
    "FrameDecoder",
    "ProtocolError",
    "RequestCancelled",
    "candidate_from_dict",
    "candidate_to_dict",
    "encode_frame",
    "report_to_dict",
    "strip_volatile",
]

#: report-dict fields that vary run to run for a fixed graph, query and
#: budget: wall-clock latency and the span tree (timings, and presence
#: at all, depend on tracing).  The single source of truth for every
#: report-identity comparison -- the differential tests, the trajectory
#: gate and the protocol round-trips all strip exactly this set.
VOLATILE_REPORT_FIELDS = frozenset({"elapsed_s", "trace"})

#: bump on incompatible frame/message changes; the server answers a hello
#: advertising any other version with a ``protocol-version`` error
#: (2: a ``candidate`` frame carries its difference from the request query)
PROTOCOL_VERSION = 2

#: hard per-frame size bound (guards both sides against corrupt prefixes)
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The byte stream or a message violated the protocol."""


class RequestCancelled(RuntimeError):
    """Raised through the engine stack when a request's cancel token is
    set; the candidate-stream callback checks the token between batches,
    which is what makes in-flight cancellation *cooperative*."""


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """One wire frame: length prefix + UTF-8 JSON of ``message``."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder over an arbitrary chunking of the stream.

    TCP guarantees bytes, not boundaries: one ``recv`` may deliver half a
    frame or three frames and a prefix.  Feed whatever arrived;
    :meth:`feed` returns every *complete* message and buffers the rest.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame}-byte bound"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable frame payload: {exc}") from exc
            if not isinstance(message, dict):
                raise ProtocolError("frame payload must be a JSON object")
            messages.append(message)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


# -- streamed candidates ----------------------------------------------------------


def _changed(element, base) -> bool:
    """``element`` differs from the request query's element of its id
    (``base``, ``None`` when the request lacks the id).  Derived candidates
    share their untouched elements, so identity answers most lookups."""
    return base is None or (
        element is not base and element.signature() != base.signature()
    )


def candidate_to_dict(request_query: GraphQuery, candidate: GraphQuery) -> Dict[str, Any]:
    """The ``query`` of a ``candidate`` frame: ``candidate`` as its
    difference from ``request_query``.

    ``vertices`` / ``edges`` list, in the element form of
    :func:`~repro.core.serialize.query_to_dict`, the candidate's elements
    that the request lacks or whose signature differs from the request's
    element of the same id; ``drop_vertices`` / ``drop_edges`` name the
    request's elements the candidate does not have.  Empty keys are left
    out.  Freeze ``request_query`` once per request: a frozen query keeps
    its element signatures.
    """
    out: Dict[str, Any] = {}
    for key, elements, base, encode in (
        ("vertices", candidate._vertices, request_query._vertices, vertex_to_dict),
        ("edges", candidate._edges, request_query._edges, edge_to_dict),
    ):
        changed = [
            encode(element)
            for ident, element in elements.items()
            if _changed(element, base.get(ident))
        ]
        if changed:
            out[key] = changed
        dropped = [ident for ident in base if ident not in elements]
        if dropped:
            out["drop_" + key] = dropped
    return out


def _apply(elements: Dict[int, Any], data: Mapping[str, Any], key: str, decode) -> int:
    """Drop and replace the ``key`` (``"vertices"`` / ``"edges"``) of
    ``elements`` as the frame says; returns one past the largest id the
    frame names an element for (0 if none)."""
    dropped = data.get("drop_" + key, [])
    if not isinstance(dropped, list):
        raise ProtocolError(f"drop_{key} must be a list, not {dropped!r}")
    named = set()
    for ident in dropped:
        if type(ident) is not int or ident not in elements or ident in named:
            raise ProtocolError(f"candidate drops an unknown id {ident!r} of {key}")
        named.add(ident)
        del elements[ident]
    top = 0
    for item in data.get(key, ()):
        element = decode(item).freeze()
        ident = element.vid if key == "vertices" else element.eid
        if ident in named:
            raise ProtocolError(f"candidate names id {ident} of {key} twice")
        named.add(ident)
        elements[ident] = element
        top = max(top, ident + 1)
    return top


def candidate_from_dict(request_query: GraphQuery, data: Any) -> GraphQuery:
    """Inverse of :func:`candidate_to_dict`: a frozen query that shares
    every element the frame leaves out with ``request_query`` (pass it
    frozen; a builder is copied on every call).

    A frame that drops an id the request lacks, names an id twice, carries
    a malformed element or leaves an edge dangling raises
    :class:`ProtocolError`; it never yields a query.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"candidate query must be an object, not {data!r}")
    base = request_query.as_frozen()
    vertices = dict(base._vertices)
    edges = dict(base._edges)
    try:
        top_vid = _apply(vertices, data, "vertices", vertex_from_dict)
        top_eid = _apply(edges, data, "edges", edge_from_dict)
        query = base._derive(vertices, edges)
        query._next_vid = max(query._next_vid, top_vid)
        query._next_eid = max(query._next_eid, top_eid)
        query.validate()
    except ProtocolError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed candidate query: {exc}") from exc
    return query


# -- report serialisation --------------------------------------------------------


def _modifications_to_dict(modifications) -> List[str]:
    return [op.describe() for op in modifications]


def _subgraph_to_dict(subgraph) -> Optional[Dict[str, Any]]:
    if subgraph is None:
        return None
    differential = subgraph.differential
    return {
        "describe": differential.describe(),
        "mcs_query": query_to_dict(differential.mcs_query()),
        "mcs_cardinality": differential.mcs_cardinality,
        "components": len(subgraph.components),
        "alternatives": len(subgraph.alternatives),
    }


def _rewriting_to_dict(rewriting) -> Optional[Dict[str, Any]]:
    # imported lazily: protocol.py must stay importable by thin clients
    # without dragging the full engine stack in at module import time
    from repro.finegrained.traverse_search_tree import FineRewriteResult
    from repro.rewrite.coarse import CoarseRewriteResult

    if rewriting is None:
        return None
    if isinstance(rewriting, CoarseRewriteResult):
        return {
            "kind": "coarse",
            "explanations": [
                {
                    "query": query_to_dict(item.query),
                    "cardinality": item.cardinality,
                    "syntactic": item.syntactic,
                    "modifications": _modifications_to_dict(item.modifications),
                    "estimate": item.estimate,
                    "describe": item.describe(),
                }
                for item in rewriting.explanations
            ],
            "evaluated": rewriting.evaluated,
            "generated": rewriting.generated,
            "queue_peak": rewriting.queue_peak,
            "budget_exhausted": rewriting.budget_exhausted,
        }
    if isinstance(rewriting, FineRewriteResult):
        return {
            "kind": "fine",
            "best_query": query_to_dict(rewriting.best_query),
            "best_cardinality": rewriting.best_cardinality,
            "best_distance": rewriting.best_distance,
            "best_syntactic": rewriting.best_syntactic,
            "modifications": _modifications_to_dict(rewriting.modifications),
            "cardinality_trace": list(rewriting.cardinality_trace),
            "evaluated": rewriting.evaluated,
            "generated": rewriting.generated,
            "tree_size": rewriting.tree_size,
            "budget_exhausted": rewriting.budget_exhausted,
            "converged": rewriting.converged,
            "describe": rewriting.describe(),
        }
    raise ProtocolError(f"unserialisable rewriting outcome {type(rewriting)!r}")


def report_to_dict(report) -> Dict[str, Any]:
    """JSON form of a :class:`~repro.why.engine.WhyQueryReport`.

    This is the ``result`` payload of a protocol ``explain`` request.
    Everything except :data:`VOLATILE_REPORT_FIELDS` is deterministic
    for a fixed graph, query and budget, which is what lets the
    differential tests compare a streamed remote report against an
    in-process one bit-identically (after :func:`strip_volatile`).
    """
    payload = {
        "problem": report.problem.value,
        "observed_cardinality": report.observed_cardinality,
        "threshold": threshold_to_dict(report.threshold),
        "query": query_to_dict(report.query),
        "subgraph": _subgraph_to_dict(report.subgraph_explanation),
        "rewriting": _rewriting_to_dict(report.rewriting),
        "summary": report.summary(),
        "elapsed_s": report.elapsed,
    }
    trace = getattr(report, "trace", None)
    if trace is not None:
        payload["trace"] = trace
    return payload


def strip_volatile(report_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """The report dict minus :data:`VOLATILE_REPORT_FIELDS` (for
    identity comparison)."""
    return {
        key: value
        for key, value in report_dict.items()
        if key not in VOLATILE_REPORT_FIELDS
    }
