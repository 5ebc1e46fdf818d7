"""Asyncio protocol server: the network front door of the why-query service.

One :class:`WhyQueryProtocolServer` wraps one
:class:`~repro.service.WhyQueryService` behind the length-prefixed
JSON-frame protocol of :mod:`repro.server.protocol`:

* **session multiplexing** -- every request carries a client-chosen
  ``id``; requests run as independent asyncio tasks over the service's
  thread pool, so replies interleave and complete out of order over one
  connection (a slow ``explain`` never blocks a fast ``count`` behind
  it);
* **streaming partial results** -- an ``explain`` with ``stream: true``
  emits one ``candidate`` frame per evaluated rewrite candidate *while
  the search runs*, through the ``on_candidate`` seam threaded down to
  :class:`~repro.exec.evaluator.CandidateEvaluator`.  Each frame carries
  the candidate as its difference from the request's query.  The request's
  worker encodes each frame and queues it; the loop is woken once per
  burst and writes everything queued in one transport write.  The
  final ``trace`` / ``result`` frames always follow every streamed
  candidate, and their send applies backpressure once per request.  A
  frame that cannot be encoded (over ``MAX_FRAME_BYTES``), candidate or
  reply, fails the request with an ``error`` frame;
* **cooperative cancellation** -- ``cancel`` sets the request's token;
  the candidate callback checks it between batches and raises
  :class:`~repro.server.protocol.RequestCancelled` through the engine
  stack, and the request answers with a ``cancelled`` frame;
* **per-tenant quotas** -- the server maps tenants (named in ``hello``)
  onto per-tenant :class:`~repro.service.BudgetPool` instances and hands
  the tenant's pool to :meth:`WhyQueryService.explain`, which leases
  from it inside the request's one worker hop; an admission failure
  becomes a protocol-level ``rejected`` frame (the HTTP-429 story)
  instead of a stack trace;
* **stats** -- the ``stats`` message serves
  :meth:`WhyQueryService.stats` -- the unified :mod:`repro.stats`
  schema -- verbatim, plus a ``server`` section of connection counters.

The server owns nothing the service does not already provide: quotas are
``BudgetPool``s, budgets are ``EvaluationBudget`` leases, streaming is
the evaluator seam.  :func:`serve_in_thread` runs the whole thing on a
background thread for tests, benchmarks and notebook use.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.graph import PropertyGraph
from repro.core.serialize import (
    graph_from_dict,
    query_from_dict,
    result_set_to_dict,
    threshold_from_dict,
)
from repro.matching.matcher import PatternMatcher
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    RequestCancelled,
    candidate_to_dict,
    encode_frame,
    report_to_dict,
)
from repro.service import AdmissionRejected, BudgetPool, WhyQueryService

__all__ = ["ThreadedServer", "WhyQueryProtocolServer", "serve_in_thread"]


class _Connection:
    """Per-connection state: writer, identity, in-flight requests."""

    __slots__ = ("writer", "write_lock", "tenant", "tasks", "cancel_tokens")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        #: FIFO lock around each reply's write and drain (streamed
        #: candidate bursts are written without it and never drain)
        self.write_lock = asyncio.Lock()
        self.tenant: Optional[str] = None
        #: request id -> running handler task
        self.tasks: Dict[Any, asyncio.Task] = {}
        #: request id -> cooperative cancellation token
        self.cancel_tokens: Dict[Any, threading.Event] = {}


class WhyQueryProtocolServer:
    """Serves the why-query protocol over asyncio streams.

    ``graphs`` preloads named graphs (clients may also ``put_graph``
    their own).  ``tenants`` maps tenant names to their
    :class:`~repro.service.BudgetPool`; ``default_quota`` (optional)
    admits every tenant without an explicit pool.  A request whose
    tenant has a pool leases its evaluation budget from that pool
    instead of the service's (``explain(budget_pool=...)``); tenants
    without a pool fall through to whatever ``budget_pool`` the service
    itself was built with.  ``port=0`` binds an ephemeral port (read it
    back from :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        service: Optional[WhyQueryService] = None,
        graphs: Optional[Mapping[str, PropertyGraph]] = None,
        tenants: Optional[Mapping[str, BudgetPool]] = None,
        default_quota: Optional[BudgetPool] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_workers: int = 8,
        allow_shutdown: bool = False,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        self.service = service if service is not None else WhyQueryService()
        self.graphs: Dict[str, PropertyGraph] = dict(graphs or {})
        self.tenants: Dict[str, BudgetPool] = dict(tenants or {})
        self.default_quota = default_quota
        self.host = host
        self.port = port
        self.allow_shutdown = allow_shutdown
        self.max_frame = max_frame
        self.address: Optional[Tuple[str, int]] = None
        self._pool = ThreadPoolExecutor(
            max_workers=request_workers, thread_name_prefix="whyquery-proto"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: Set[_Connection] = set()
        #: non-injective side matchers per graph name (the pooled context
        #: matcher serves the injective default)
        self._alt_matchers: Dict[str, PatternMatcher] = {}
        # lifetime counters (mutated on the loop thread only)
        self.stats_counters = {
            "connections": 0,
            "connections_open": 0,
            "requests": 0,
            "streamed_candidates": 0,
            "cancelled": 0,
            "rejected": 0,
            "errors": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def close(self) -> None:
        """Stop listening and drain every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait for in-flight requests of every connection to finish
        for conn in list(self._connections):
            await self._drain_connection(conn)
        self._pool.shutdown(wait=True)
        self.service.close()

    async def run(
        self,
        ready: Optional[threading.Event] = None,
        on_started=None,
    ) -> None:
        """Start, serve until :meth:`stop` is called, then drain and close."""
        await self.start()
        if ready is not None:
            ready.set()
        if on_started is not None:
            on_started(self.address)
        try:
            await self._stop_event.wait()
        finally:
            await self.close()

    def stop(self) -> None:
        """Request shutdown (thread-safe; the serving loop drains first)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    # -- connection handling ---------------------------------------------------

    async def _send(self, conn: _Connection, message: Dict[str, Any]) -> None:
        # encoded outside the try: a reply over MAX_FRAME_BYTES raises a
        # ProtocolError to _run_handler, which answers `error`, instead of
        # vanishing and leaving the client waiting
        frame = encode_frame(message)
        try:
            async with conn.write_lock:
                conn.writer.write(frame)
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # peer went away mid-reply; the read loop will notice

    async def _drain_connection(self, conn: _Connection) -> None:
        """Let every in-flight request of ``conn`` finish and flush."""
        while conn.tasks:
            tasks = list(conn.tasks.values())
            await asyncio.gather(*tasks, return_exceptions=True)
            for rid in [r for r, t in conn.tasks.items() if t.done()]:
                conn.tasks.pop(rid, None)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.stats_counters["connections"] += 1
        self.stats_counters["connections_open"] += 1
        decoder = FrameDecoder(self.max_frame)
        polite = False
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    self.stats_counters["errors"] += 1
                    await self._send(
                        conn,
                        {"type": "error", "code": "protocol", "message": str(exc)},
                    )
                    break
                if any(m.get("type") == "goodbye" for m in messages):
                    polite = True
                for message in messages:
                    if message.get("type") == "goodbye":
                        break
                    self._dispatch(conn, message)
                if polite:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # drain on close: in-flight requests finish and their replies
            # flush before the goodbye/FIN -- a closing client never loses
            # a result it already paid for
            await self._drain_connection(conn)
            if polite:
                await self._send(conn, {"type": "goodbye"})
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connections.discard(conn)
            self.stats_counters["connections_open"] -= 1

    def _dispatch(self, conn: _Connection, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        rid = message.get("id")
        if kind == "hello":
            task = asyncio.ensure_future(self._handle_hello(conn, message))
        elif kind == "cancel":
            # best-effort: flip the token; the in-flight request answers
            # with a `cancelled` frame when the engine unwinds
            token = conn.cancel_tokens.get(rid)
            if token is not None:
                token.set()
            return
        elif kind == "shutdown":
            task = asyncio.ensure_future(self._handle_shutdown(conn, message))
        elif kind in (
            "put_graph",
            "explain",
            "count",
            "match",
            "stats",
            "metrics",
            "slow_queries",
        ):
            self.stats_counters["requests"] += 1
            handler = getattr(self, f"_handle_{kind}")
            if kind == "explain":
                conn.cancel_tokens[rid] = threading.Event()
            task = asyncio.ensure_future(self._run_handler(conn, rid, handler, message))
            if rid is not None:
                conn.tasks[rid] = task
            return
        else:
            self.stats_counters["errors"] += 1
            task = asyncio.ensure_future(
                self._send(
                    conn,
                    {
                        "type": "error",
                        "id": rid,
                        "code": "unknown-message",
                        "message": f"unknown message type {kind!r}",
                    },
                )
            )
        if rid is not None:
            conn.tasks[rid] = task

    async def _run_handler(self, conn, rid, handler, message) -> None:
        try:
            await handler(conn, message)
        except AdmissionRejected as exc:
            self.stats_counters["rejected"] += 1
            await self._send(
                conn,
                {"type": "rejected", "id": rid, "code": 429, "message": str(exc)},
            )
        except RequestCancelled:
            self.stats_counters["cancelled"] += 1
            await self._send(conn, {"type": "cancelled", "id": rid})
        except Exception as exc:  # a broken request must not kill the server
            self.stats_counters["errors"] += 1
            await self._send(
                conn,
                {
                    "type": "error",
                    "id": rid,
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                },
            )
        finally:
            conn.tasks.pop(rid, None)
            conn.cancel_tokens.pop(rid, None)

    # -- message handlers ------------------------------------------------------

    async def _handle_hello(self, conn: _Connection, message: Dict[str, Any]) -> None:
        spoken = message.get("protocol", PROTOCOL_VERSION)
        if not isinstance(spoken, int) or spoken != PROTOCOL_VERSION:
            await self._send(
                conn,
                {
                    "type": "error",
                    "code": "protocol-version",
                    "message": (
                        f"client speaks protocol {spoken!r}, server speaks "
                        f"{PROTOCOL_VERSION}"
                    ),
                },
            )
            return
        conn.tenant = message.get("tenant")
        await self._send(
            conn,
            {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "server": "repro-whyquery",
                "graphs": sorted(self.graphs),
            },
        )

    async def _handle_shutdown(self, conn: _Connection, message: Dict[str, Any]) -> None:
        rid = message.get("id")
        if not self.allow_shutdown:
            await self._send(
                conn,
                {
                    "type": "error",
                    "id": rid,
                    "code": "forbidden",
                    "message": "server was not started with allow_shutdown",
                },
            )
            return
        await self._send(conn, {"type": "ok", "id": rid})
        self._stop_event.set()

    async def _handle_put_graph(self, conn: _Connection, message: Dict[str, Any]) -> None:
        name = message["graph"]
        payload = message["data"]
        loop = asyncio.get_running_loop()
        graph = await loop.run_in_executor(
            self._pool, functools.partial(graph_from_dict, payload)
        )
        self.graphs[name] = graph
        self._alt_matchers.pop(name, None)
        await self._send(
            conn,
            {
                "type": "ok",
                "id": message.get("id"),
                "graph": name,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "version": graph.version,
            },
        )

    def _graph_named(self, name: Any) -> PropertyGraph:
        graph = self.graphs.get(name)
        if graph is None:
            raise KeyError(f"unknown graph {name!r}; put_graph it first")
        return graph

    def _matcher_for(self, name: str, injective: bool) -> PatternMatcher:
        graph = self._graph_named(name)
        if injective:
            # the pooled context's warm matcher (the service default)
            return self.service.context_for(graph).matcher
        matcher = self._alt_matchers.get(name)
        if matcher is None or matcher.graph is not graph:
            matcher = PatternMatcher(graph, injective=False)
            self._alt_matchers[name] = matcher
        return matcher

    async def _handle_count(self, conn: _Connection, message: Dict[str, Any]) -> None:
        query = query_from_dict(message["query"])
        matcher = self._matcher_for(message["graph"], message.get("injective", True))
        loop = asyncio.get_running_loop()
        count = await loop.run_in_executor(
            self._pool,
            functools.partial(matcher.count, query, limit=message.get("limit")),
        )
        await self._send(
            conn, {"type": "result", "id": message.get("id"), "count": count}
        )

    async def _handle_match(self, conn: _Connection, message: Dict[str, Any]) -> None:
        query = query_from_dict(message["query"])
        matcher = self._matcher_for(message["graph"], message.get("injective", True))
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            self._pool,
            functools.partial(matcher.match, query, limit=message.get("limit")),
        )
        await self._send(
            conn,
            {
                "type": "result",
                "id": message.get("id"),
                "matches": result_set_to_dict(results),
            },
        )

    async def _handle_stats(self, conn: _Connection, message: Dict[str, Any]) -> None:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(self._pool, self.service.stats)
        payload = dict(stats)  # the unified schema, served verbatim
        payload["server"] = dict(self.stats_counters)
        await self._send(
            conn, {"type": "result", "id": message.get("id"), "stats": payload}
        )

    async def _handle_metrics(self, conn: _Connection, message: Dict[str, Any]) -> None:
        from repro.obs import REGISTRY

        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(self._pool, REGISTRY.snapshot)
        text = await loop.run_in_executor(self._pool, REGISTRY.render)
        await self._send(
            conn,
            {
                "type": "result",
                "id": message.get("id"),
                "metrics": snapshot,
                "text": text,
            },
        )

    async def _handle_slow_queries(
        self, conn: _Connection, message: Dict[str, Any]
    ) -> None:
        limit = message.get("limit")
        loop = asyncio.get_running_loop()
        entries = await loop.run_in_executor(
            self._pool, functools.partial(self.service.slow_queries, limit)
        )
        await self._send(
            conn,
            {
                "type": "result",
                "id": message.get("id"),
                "slow_queries": entries,
            },
        )

    def _tenant_pool(self, conn: _Connection) -> Optional[BudgetPool]:
        if conn.tenant is None:
            return None
        return self.tenants.get(conn.tenant, self.default_quota)

    async def _handle_explain(self, conn: _Connection, message: Dict[str, Any]) -> None:
        rid = message.get("id")
        graph = self._graph_named(message["graph"])
        # frozen once: the search derives its candidates from this object,
        # so a candidate frame finds its unchanged elements by identity
        query = query_from_dict(message["query"]).freeze()
        threshold = (
            threshold_from_dict(message["threshold"])
            if message.get("threshold") is not None
            else None
        )
        stream = bool(message.get("stream", False))
        trace = bool(message.get("trace", False))
        token = conn.cancel_tokens.setdefault(rid, threading.Event())
        loop = asyncio.get_running_loop()

        seq = itertools.count()
        # candidate frames encoded on the worker, not yet written; the
        # loop is woken once per burst, when the list turns non-empty
        pending: List[bytes] = []
        pending_lock = threading.Lock()
        streamed = 0

        def flush() -> None:
            # loop thread: one transport write for the whole burst; one
            # write call never interleaves with another, so frames stay
            # whole, and no drain waits here
            nonlocal streamed
            with pending_lock:
                burst = b"".join(pending)
                streamed += len(pending)
                pending.clear()
            if burst:
                try:
                    conn.writer.write(burst)
                except (ConnectionResetError, BrokenPipeError, RuntimeError):
                    pass  # peer went away mid-stream; the read loop will notice

        def emit(candidate) -> None:
            # runs on the request's worker thread, between evaluator
            # batches -- the cooperative cancellation point
            if token.is_set():
                raise RequestCancelled(rid)
            if not stream:
                return
            # an unencodable frame raises here and fails the request
            frame = encode_frame(
                {
                    "type": "candidate",
                    "id": rid,
                    "seq": next(seq),
                    "query": candidate_to_dict(query, candidate.query),
                    "cardinality": candidate.cardinality,
                }
            )
            with pending_lock:
                pending.append(frame)
                wake = len(pending) == 1
            if wake:
                loop.call_soon_threadsafe(flush)

        try:
            call = functools.partial(
                self.service.explain,
                graph,
                query,
                threshold,
                explain=bool(message.get("explain", True)),
                rewrite=bool(message.get("rewrite", True)),
                on_candidate=emit,
                budget_pool=self._tenant_pool(conn),
                trace=trace,
            )
            report = await loop.run_in_executor(self._pool, call)
        finally:
            # the last burst goes out before any later frame of this
            # request; the trace / result `_send` drains once for all
            flush()
            self.stats_counters["streamed_candidates"] += streamed
        if token.is_set():
            # cancelled after the last batch: honour the cancel anyway
            raise RequestCancelled(rid)
        report_dict = report_to_dict(report)
        span_tree = report_dict.pop("trace", None)
        if trace and span_tree is not None:
            # the span tree travels in its own frame so the `result`
            # payload stays identical to an untraced explain (modulo
            # protocol-level VOLATILE_REPORT_FIELDS)
            await self._send(
                conn, {"type": "trace", "id": rid, "trace": span_tree}
            )
        await self._send(
            conn,
            {
                "type": "result",
                "id": rid,
                "report": report_dict,
                "streamed": streamed,
            },
        )


class ThreadedServer:
    """A :class:`WhyQueryProtocolServer` running on a background thread."""

    def __init__(self, server: WhyQueryProtocolServer) -> None:
        self.server = server
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="whyquery-server", daemon=True
        )
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        try:
            asyncio.run(self.server.run(ready=self._ready))
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()

    def start(self) -> "ThreadedServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.server.address is None:
            raise RuntimeError("server did not bind within 30s")
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        self.server.stop()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog
            raise RuntimeError("server thread did not stop in time")
        if self._error is not None:
            raise RuntimeError("server crashed") from self._error

    def __enter__(self) -> "ThreadedServer":
        return self.start() if not self._thread.is_alive() else self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_in_thread(**kwargs: Any) -> ThreadedServer:
    """Boot a :class:`WhyQueryProtocolServer` on a background thread.

    Keyword arguments go to the server constructor.  Returns a started
    :class:`ThreadedServer`; read ``handle.address`` for the bound port,
    call ``handle.stop()`` (or use it as a context manager) to drain and
    shut down.
    """
    return ThreadedServer(WhyQueryProtocolServer(**kwargs)).start()
