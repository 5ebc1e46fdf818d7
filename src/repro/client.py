"""Client for the why-query protocol server.

:class:`WhyQueryClient` speaks the wire format of
:mod:`repro.server.protocol` over a plain blocking ``socket``: one call
per request, or :meth:`WhyQueryClient.explain_stream` for an iterator of
rewrite candidates as the server finds them.  Replies are demultiplexed
by request ``id``, so several streamed explains can be in flight on one
connection and out-of-order completion on the server side is invisible
to callers; an asyncio program drives the client through
``asyncio.to_thread``.  Construct it through :func:`connect`, which
performs the ``hello``/``welcome`` handshake::

    with connect(host, port) as client:
        client.put_graph("social", graph)
        report = client.explain("social", failing_query)
        print(report["summary"])

    stream = client.explain_stream("social", failing_query)
    for candidate in stream:          # rewrites, as the search finds them
        print(candidate.cardinality, candidate.query)
    report = stream.result()          # identical to client.explain(...)
"""

from __future__ import annotations

import itertools
import socket
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.core.serialize import (
    graph_to_dict,
    query_from_dict,
    query_to_dict,
    result_set_from_dict,
    threshold_to_dict,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    RequestCancelled,
    encode_frame,
)

__all__ = [
    "RequestRejected",
    "ServerError",
    "StreamedCandidate",
    "WhyQueryClient",
    "connect",
]


class ServerError(RuntimeError):
    """The server answered a request with an ``error`` frame."""

    def __init__(self, code: Any, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class RequestRejected(ServerError):
    """The server refused admission (a protocol-level 429): the tenant's
    quota pool could not grant an evaluation budget for the request."""


@dataclass(frozen=True)
class StreamedCandidate:
    """One rewrite candidate, streamed while the server's search runs."""

    seq: int
    query: GraphQuery
    cardinality: int


def _candidate(frame: Mapping[str, Any]) -> StreamedCandidate:
    return StreamedCandidate(
        seq=frame["seq"],
        query=query_from_dict(frame["query"]),
        cardinality=frame["cardinality"],
    )


def _raise_for(frame: Dict[str, Any]) -> None:
    kind = frame.get("type")
    if kind == "rejected":
        raise RequestRejected(frame.get("code", 429), frame.get("message", "rejected"))
    if kind == "cancelled":
        raise RequestCancelled(frame.get("id"))
    if kind == "error":
        raise ServerError(frame.get("code", "error"), frame.get("message", ""))


def _explain_request(
    rid: int,
    graph: str,
    query: GraphQuery,
    threshold,
    explain: bool,
    rewrite: bool,
    stream: bool,
    trace: bool = False,
) -> Dict[str, Any]:
    return {
        "type": "explain",
        "id": rid,
        "graph": graph,
        "query": query_to_dict(query),
        "threshold": None if threshold is None else threshold_to_dict(threshold),
        "explain": explain,
        "rewrite": rewrite,
        "stream": stream,
        "trace": trace,
    }


class WhyQueryClient:
    """Synchronous protocol client over one TCP connection.

    Thread-compatible, not thread-safe: issue requests from one thread
    (or guard with your own lock).  Replies are demultiplexed by request
    id, so an :class:`ExplainStream` left half-consumed does not corrupt
    later requests -- its remaining frames are buffered as they arrive.
    """

    def __init__(self, sock: socket.socket, tenant: Optional[str] = None) -> None:
        self._sock = sock
        self.tenant = tenant
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)
        #: request id -> frames received but not yet consumed
        self._inbox: Dict[Any, List[Dict[str, Any]]] = {}
        self._general: List[Dict[str, Any]] = []
        self.welcome: Optional[Dict[str, Any]] = None
        self._closed = False

    # -- plumbing --

    def _send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(encode_frame(message))

    def _pump(self) -> None:
        """Read from the socket until at least one frame decodes."""
        while True:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                for frame in frames:
                    rid = frame.get("id")
                    if rid is None:
                        self._general.append(frame)
                    else:
                        self._inbox.setdefault(rid, []).append(frame)
                return

    def _next_frame(self, rid: Any) -> Dict[str, Any]:
        """The next frame addressed to ``rid`` (reads until one arrives)."""
        while not self._inbox.get(rid):
            self._pump()
        return self._inbox[rid].pop(0)

    def _next_general(self, kind: str) -> Dict[str, Any]:
        while True:
            for i, frame in enumerate(self._general):
                if frame.get("type") in (kind, "error"):
                    del self._general[i]
                    _raise_for(frame)
                    return frame
            self._pump()

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._send(message)
        frame = self._next_frame(message["id"])
        _raise_for(frame)
        return frame

    def _handshake(self) -> None:
        self._send(
            {"type": "hello", "protocol": PROTOCOL_VERSION, "tenant": self.tenant}
        )
        self.welcome = self._next_general("welcome")

    # -- requests --

    def put_graph(self, name: str, graph: PropertyGraph) -> Dict[str, Any]:
        """Upload ``graph`` under ``name``; returns the server's ack."""
        return self._request(
            {
                "type": "put_graph",
                "id": next(self._ids),
                "graph": name,
                "data": graph_to_dict(graph),
            }
        )

    def count(
        self,
        graph: str,
        query: GraphQuery,
        limit: Optional[int] = None,
        injective: bool = True,
    ) -> int:
        frame = self._request(
            {
                "type": "count",
                "id": next(self._ids),
                "graph": graph,
                "query": query_to_dict(query),
                "limit": limit,
                "injective": injective,
            }
        )
        return frame["count"]

    def match(
        self,
        graph: str,
        query: GraphQuery,
        limit: Optional[int] = None,
        injective: bool = True,
    ):
        frame = self._request(
            {
                "type": "match",
                "id": next(self._ids),
                "graph": graph,
                "query": query_to_dict(query),
                "limit": limit,
                "injective": injective,
            }
        )
        return result_set_from_dict(frame["matches"])

    def explain(
        self,
        graph: str,
        query: GraphQuery,
        threshold=None,
        explain: bool = True,
        rewrite: bool = True,
        trace: bool = False,
    ) -> Dict[str, Any]:
        """Debug ``query`` remotely; returns the report dict (the JSON
        form of :class:`~repro.why.engine.WhyQueryReport`).

        With ``trace=True`` the server runs the explain under a request
        tracer and ships the span tree in a dedicated ``trace`` frame
        ahead of the result; the returned report dict carries it under
        ``"trace"``, mirroring an in-process traced explain.
        """
        rid = next(self._ids)
        self._send(
            _explain_request(
                rid, graph, query, threshold, explain, rewrite, False, trace
            )
        )
        span_tree: Optional[Dict[str, Any]] = None
        while True:
            frame = self._next_frame(rid)
            if frame.get("type") == "trace":
                span_tree = frame.get("trace")
                continue
            _raise_for(frame)
            break
        report = frame["report"]
        if span_tree is not None:
            report["trace"] = span_tree
        return report

    def explain_stream(
        self,
        graph: str,
        query: GraphQuery,
        threshold=None,
        explain: bool = True,
        rewrite: bool = True,
        trace: bool = False,
    ) -> "ExplainStream":
        """Like :meth:`explain`, but yields rewrite candidates as the
        server's search evaluates them (then :meth:`ExplainStream.result`
        returns the same final report)."""
        rid = next(self._ids)
        self._send(
            _explain_request(
                rid, graph, query, threshold, explain, rewrite, True, trace
            )
        )
        return ExplainStream(self, rid)

    def stats(self) -> Dict[str, Any]:
        """The service's unified stats schema plus the ``server`` section."""
        return self._request({"type": "stats", "id": next(self._ids)})["stats"]

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics registry: ``{"metrics": snapshot,
        "text": prometheus_exposition}``."""
        frame = self._request({"type": "metrics", "id": next(self._ids)})
        return {"metrics": frame["metrics"], "text": frame["text"]}

    def slow_queries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The server's slow-query log entries, slowest first."""
        frame = self._request(
            {"type": "slow_queries", "id": next(self._ids), "limit": limit}
        )
        return frame["slow_queries"]

    def shutdown_server(self) -> Dict[str, Any]:
        """Ask the server to shut down (honoured only with
        ``allow_shutdown=True`` on the server side)."""
        return self._request({"type": "shutdown", "id": next(self._ids)})

    def cancel(self, rid: Any) -> None:
        self._send({"type": "cancel", "id": rid})

    def close(self) -> None:
        """Say goodbye and wait for the server's drain ack."""
        if self._closed:
            return
        self._closed = True
        try:
            self._send({"type": "goodbye"})
            while True:
                for i, frame in enumerate(self._general):
                    if frame.get("type") == "goodbye":
                        break
                else:
                    self._pump()
                    continue
                break
        except (ConnectionError, OSError):
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "WhyQueryClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ExplainStream:
    """Iterator of :class:`StreamedCandidate` for one streamed explain.

    Iteration ends when the server sends the final frame; then
    :meth:`result` returns the report dict (or raises
    :class:`~repro.server.protocol.RequestCancelled` /
    :class:`RequestRejected`).  :meth:`result` may also be called
    directly -- it drains the remaining candidates into
    :attr:`candidates`.
    """

    def __init__(self, client: WhyQueryClient, rid: Any) -> None:
        self._client = client
        self.request_id = rid
        self.candidates: List[StreamedCandidate] = []
        #: the span tree of a ``trace=True`` explain (set once the
        #: server's ``trace`` frame arrives, before the final frame)
        self.trace: Optional[Dict[str, Any]] = None
        self._final: Optional[Dict[str, Any]] = None

    def __iter__(self) -> Iterator[StreamedCandidate]:
        return self

    def __next__(self) -> StreamedCandidate:
        if self._final is not None:
            raise StopIteration
        while True:
            frame = self._client._next_frame(self.request_id)
            if frame.get("type") == "candidate":
                candidate = _candidate(frame)
                self.candidates.append(candidate)
                return candidate
            if frame.get("type") == "trace":
                self.trace = frame.get("trace")
                continue
            self._final = frame
            raise StopIteration

    def cancel(self) -> None:
        """Request cooperative cancellation of the in-flight explain."""
        self._client.cancel(self.request_id)

    def result(self) -> Dict[str, Any]:
        """Drain the stream and return the final report dict."""
        for _ in self:
            pass
        assert self._final is not None
        _raise_for(self._final)
        report = self._final["report"]
        if self.trace is not None:
            report["trace"] = self.trace
        return report


def connect(
    host: str, port: int, tenant: Optional[str] = None, timeout: Optional[float] = None
) -> WhyQueryClient:
    """Open a connection and perform the ``hello`` handshake."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    client = WhyQueryClient(sock, tenant=tenant)
    client._handshake()
    return client
