"""Protocol-level tests for the why-query server (ISSUE 8 tentpole).

Covers the wire format (framing over arbitrary TCP chunkings), session
multiplexing, streamed partial results, cooperative cancellation,
per-tenant quota rejection, server drain on close, and the differential
guarantee that a streamed remote explain equals the in-process one
bit-identically (modulo wall-clock fields).
"""

from __future__ import annotations

import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.core.graph import PropertyGraph
from repro.core.predicates import equals
from repro.core.query import GraphQuery
from repro.core.serialize import query_to_dict
from repro.client import (
    ExplainStream,
    RequestRejected,
    ServerError,
    WhyQueryClient,
    _explain_request,
    connect,
)
from repro.datasets import ldbc
from repro.exec import ExecutionContext
from repro.matching import PatternMatcher
from repro.metrics.cardinality import CardinalityThreshold
from repro.obs import REGISTRY
from repro.rewrite.cache import QueryResultCache
from repro.server import serve_in_thread
from repro.server.protocol import (
    FrameDecoder,
    ProtocolError,
    RequestCancelled,
    candidate_from_dict,
    candidate_to_dict,
    encode_frame,
    report_to_dict,
    strip_volatile,
)
from repro.service import BudgetPool, WhyQueryService


def small_graph() -> PropertyGraph:
    g = PropertyGraph()
    anna = g.add_vertex(type="person", name="Anna")
    bob = g.add_vertex(type="person", name="Bob")
    uni = g.add_vertex(type="university", name="TU")
    town = g.add_vertex(type="city", name="Dresden")
    g.add_edge(anna, uni, "workAt")
    g.add_edge(bob, uni, "studyAt")
    g.add_edge(uni, town, "locatedIn")
    return g


def failing_query() -> GraphQuery:
    q = GraphQuery()
    person = q.add_vertex(predicates={"type": equals("person")})
    uni = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(person, uni, types={"foundedBy"})
    return q


def matching_query() -> GraphQuery:
    q = GraphQuery()
    person = q.add_vertex(predicates={"type": equals("person")})
    uni = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(person, uni, types={"workAt", "studyAt"})
    return q


def too_many_request(graph: PropertyGraph, name: str):
    """A paper query with the e2e mix's too-many interval (``0.3 * count``
    halved to its upper bound): dozens of streamed candidates."""
    query = ldbc.queries()[name]
    upper = int(0.3 * PatternMatcher(graph).count(query))
    return query, CardinalityThreshold(max(1, upper // 2), upper)


def request_explain(client, graph: str, query: GraphQuery, trace: bool = False):
    """Send a streamed explain; returns its request id."""
    rid = next(client._ids)
    client._send(_explain_request(rid, graph, query, None, True, True, True, trace))
    return rid


def frames_until_final(client, rid):
    """Every frame of ``rid`` in arrival order, through its final one."""
    frames = []
    while not frames or frames[-1]["type"] in ("candidate", "trace"):
        frames.append(client._next_frame(rid))
    return frames


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    c = connect(*server.address)
    c.put_graph("g", small_graph())
    yield c
    c.close()


def hello_reply(server, spoken) -> dict:
    """The server's first frame after a raw ``hello`` advertising ``spoken``."""
    sock = socket.create_connection(server.address)
    try:
        sock.sendall(encode_frame({"type": "hello", "protocol": spoken}))
        decoder = FrameDecoder()
        frames = []
        while not frames:
            frames = decoder.feed(sock.recv(65536))
        assert frames[0]["type"] == "error"
        return frames[0]
    finally:
        sock.close()


def first_candidate_frame(query: GraphQuery) -> bytes:
    """The first ``candidate`` frame a streamed explain of ``query`` on
    :func:`small_graph` sends, encoded in-process."""
    service = WhyQueryService()
    try:
        query = query.freeze()
        candidates = []
        service.explain(small_graph(), query, on_candidate=candidates.append)
    finally:
        service.close()
    return encode_frame(
        {
            "type": "candidate",
            "id": 2,
            "seq": 0,
            "query": candidate_to_dict(query, candidates[0].query),
            "cardinality": candidates[0].cardinality,
        }
    )


# -- framing ---------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        decoder = FrameDecoder()
        message = {"type": "hello", "nested": {"a": [1, 2, 3]}, "u": "é"}
        frames = decoder.feed(encode_frame(message))
        assert frames == [message]
        assert decoder.pending_bytes == 0

    def test_split_reads_byte_by_byte(self):
        """TCP may deliver one byte at a time; every prefix decodes to
        nothing and the final byte completes the message."""
        decoder = FrameDecoder()
        wire = encode_frame({"type": "count", "id": 7}) + encode_frame(
            {"type": "stats", "id": 8}
        )
        seen = []
        for i in range(len(wire)):
            seen.extend(decoder.feed(wire[i : i + 1]))
        assert [m["type"] for m in seen] == ["count", "stats"]
        assert decoder.pending_bytes == 0

    def test_coalesced_reads(self):
        """One recv may deliver three frames and half of a fourth."""
        decoder = FrameDecoder()
        frames = [encode_frame({"type": "count", "id": i}) for i in range(4)]
        blob = b"".join(frames)
        head, tail = blob[: -3], blob[-3:]
        first = decoder.feed(head)
        assert [m["id"] for m in first] == [0, 1, 2]
        assert decoder.pending_bytes > 0
        second = decoder.feed(tail)
        assert [m["id"] for m in second] == [3]

    def test_oversize_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=16)
        import struct

        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 17))

    def test_undecodable_payload_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")

    def test_non_object_payload_rejected(self):
        import struct

        decoder = FrameDecoder()
        payload = b"[1,2]"
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", len(payload)) + payload)

    def test_encode_rejects_oversize(self):
        import repro.server.protocol as protocol

        big = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError):
            encode_frame(big)


# -- the candidate difference form ------------------------------------------------


@pytest.fixture(scope="module")
def mix_candidates():
    """``(request query, candidate query)`` for every candidate the
    32-request mix hands to ``on_candidate`` in one fresh in-process pass."""
    from test_property_based import paper_requests

    graphs, requests = paper_requests()
    pairs = []
    with WhyQueryService() as service:
        for name, query, threshold in requests:
            service.explain(
                graphs[name],
                query,
                threshold,
                on_candidate=lambda item, q=query: pairs.append((q, item.query)),
            )
    return pairs


def wire_size(data) -> int:
    return len(json.dumps(data, separators=(",", ":")))


class TestCandidateCodec:
    def test_round_trip_over_the_mix(self, mix_candidates):
        assert len(mix_candidates) > 500
        for request, candidate in mix_candidates:
            diff = candidate_to_dict(request, candidate)
            back = candidate_from_dict(request, json.loads(json.dumps(diff)))
            assert back.frozen
            assert back.signature() == candidate.signature()
            assert query_to_dict(back) == query_to_dict(candidate)
            assert wire_size(diff) <= wire_size(query_to_dict(candidate))
            # what the frame leaves out is the request's own element
            named = {item["id"] for item in diff.get("vertices", ())}
            for vertex in back.vertices():
                if vertex.vid not in named:
                    assert vertex is request.vertex(vertex.vid)
            named = {item["id"] for item in diff.get("edges", ())}
            for edge in back.edges():
                if edge.eid not in named:
                    assert edge is request.edge(edge.eid)

    def test_added_and_dropped_elements_round_trip(self):
        """No rewrite of the mix adds an element; a candidate that does
        still names every element the request lacks."""
        request = failing_query().freeze()
        builder = request.copy()
        city = builder.add_vertex(predicates={"type": equals("city")})
        located = builder.add_edge(1, city, types={"locatedIn"})
        builder.remove_edge(0)
        candidate = builder.freeze()
        diff = candidate_to_dict(request, candidate)
        assert [item["id"] for item in diff["vertices"]] == [city]
        assert [item["id"] for item in diff["edges"]] == [located]
        assert diff["drop_edges"] == [0]
        assert "drop_vertices" not in diff
        back = candidate_from_dict(request, json.loads(json.dumps(diff)))
        assert back.signature() == candidate.signature()
        assert back.frozen and back.vertex(0) is request.vertex(0)
        # the identifier counters continue past the added elements
        builder = back.copy()
        assert builder.add_vertex() == city + 1
        assert builder.add_edge(0, 1) == located + 1

    def test_unchanged_candidate_is_an_empty_difference(self):
        query = failing_query().freeze()
        assert candidate_to_dict(query, query) == {}
        assert candidate_to_dict(query, failing_query()) == {}
        assert candidate_from_dict(query, {}) == query

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param({"drop_vertices": [5]}, id="dropped-vertex-the-request-lacks"),
            pytest.param({"drop_edges": [3]}, id="dropped-edge-the-request-lacks"),
            pytest.param({"drop_edges": [0, 0]}, id="edge-dropped-twice"),
            pytest.param({"drop_edges": "0"}, id="drop-list-not-a-list"),
            pytest.param({"drop_edges": ["0"]}, id="non-int-dropped-id"),
            pytest.param(
                {"vertices": [{"id": "0", "predicates": {}}]}, id="non-int-vertex-id"
            ),
            pytest.param(
                {
                    "edges": [
                        {"id": 0, "source": 0.0, "target": 1, "directions": ["forward"]}
                    ]
                },
                id="non-int-endpoint",
            ),
            pytest.param(
                {"vertices": [{"id": 0, "predicates": {"type": {"kind": "regex"}}}]},
                id="unknown-predicate-kind",
            ),
            pytest.param(
                {"vertices": [{"id": 0, "predicates": {"type": {"kind": "values"}}}]},
                id="predicate-without-values",
            ),
            pytest.param(
                {"vertices": [{"id": 0, "predicates": ["type"]}]},
                id="predicates-not-a-map",
            ),
            pytest.param({"drop_vertices": [1]}, id="edge-left-dangling"),
            pytest.param(
                {
                    "edges": [
                        {"id": 1, "source": 0, "target": 7, "directions": ["forward"]}
                    ]
                },
                id="new-edge-to-a-missing-vertex",
            ),
            pytest.param(
                {"vertices": [{"id": 1, "predicates": {}}], "drop_vertices": [1]},
                id="dropped-and-named",
            ),
            pytest.param([], id="not-an-object"),
        ],
    )
    def test_hostile_frame_raises(self, frame):
        with pytest.raises(ProtocolError):
            candidate_from_dict(failing_query().freeze(), frame)

    def test_stream_raises_on_a_hostile_frame(self):
        client = WhyQueryClient(sock=None)
        client._inbox[1] = [
            {"type": "candidate", "id": 1, "seq": 0, "query": {"drop_vertices": [1]},
             "cardinality": 0},
        ]
        stream = ExplainStream(client, 1, failing_query())
        with pytest.raises(ProtocolError):
            next(stream)
        assert stream.candidates == []


# -- sessions and multiplexing ---------------------------------------------------


class TestSessions:
    def test_handshake_and_welcome(self, server):
        with connect(*server.address, tenant="alice") as c:
            assert c.welcome["type"] == "welcome"
            assert c.welcome["protocol"] == 2

    def test_newer_protocol_rejected(self, server):
        assert hello_reply(server, 99)["code"] == "protocol-version"

    def test_older_protocol_rejected(self, server):
        """A version-1 reader would misparse the difference-form
        ``candidate`` frames, so an older hello is refused too."""
        assert hello_reply(server, 1)["code"] == "protocol-version"

    def test_count_and_match(self, client):
        assert client.count("g", failing_query()) == 0
        assert client.count("g", matching_query()) == 2
        matches = client.match("g", matching_query())
        assert len(matches) == 2
        assert client.count("g", matching_query(), limit=1) == 1

    def test_unknown_graph_is_an_error_not_a_crash(self, client):
        with pytest.raises(ServerError):
            client.count("nope", matching_query())
        # the connection survives the error frame
        assert client.count("g", matching_query()) == 2

    def test_unknown_message_type(self, client):
        client._send({"type": "frobnicate", "id": 99})
        frame = client._next_frame(99)
        assert frame["type"] == "error"
        assert frame["code"] == "unknown-message"

    def test_interleaved_requests_on_one_connection(self, client):
        """A streamed explain left half-consumed must not block other
        requests on the same connection: replies are demultiplexed by
        request id, whatever order the server completes them in."""
        stream = client.explain_stream("g", failing_query())
        # interleave: a full count request while the explain is in flight
        assert client.count("g", matching_query()) == 2
        report = stream.result()
        assert report["problem"] == "why-empty"
        assert len(stream.candidates) > 0

    def test_out_of_order_completion(self, server):
        """Two explains issued back-to-back; the second (tiny) one is
        consumed first even though both share the connection."""
        with connect(*server.address) as c:
            c.put_graph("g", small_graph())
            slow = c.explain_stream("g", failing_query())
            fast_report = c.explain("g", matching_query(), rewrite=False)
            assert fast_report["problem"] == "expected"
            report = slow.result()
            assert report["problem"] == "why-empty"

    def test_many_requests_in_flight_before_any_reply_is_read(self, client):
        """Eight counts and two explains are written to one connection
        before a single reply is read; every reply finds its request."""
        from repro.core.serialize import query_to_dict

        count_ids = [next(client._ids) for _ in range(8)]
        for rid in count_ids:
            client._send(
                {
                    "type": "count",
                    "id": rid,
                    "graph": "g",
                    "query": query_to_dict(matching_query()),
                }
            )
        full = client.explain_stream("g", failing_query())
        classify_only = client.explain_stream("g", failing_query(), rewrite=False)
        assert [client._next_frame(rid)["count"] for rid in count_ids] == [2] * 8
        assert classify_only.result()["rewriting"] is None
        report = full.result()
        assert report["problem"] == "why-empty"
        assert full.candidates
        assert strip_volatile(report) == strip_volatile(
            client.explain("g", failing_query())
        )

    def test_stats_message_serves_unified_schema(self, client):
        client.count("g", matching_query())
        stats = client.stats()
        assert stats["schema"] == "repro.stats/1"
        for section in ("caches", "csr", "programs", "pools", "admission", "deltas"):
            assert section in stats
        assert stats["server"]["requests"] > 0
        assert stats["server"]["connections"] >= 1


# -- streaming and the differential guarantee ------------------------------------


class TestStreaming:
    def test_streamed_candidates_arrive_before_result(self, client):
        stream = client.explain_stream("g", failing_query())
        candidates = list(stream)
        assert candidates, "a failing query must stream rewrite candidates"
        report = stream.result()
        assert report["problem"] == "why-empty"
        # every streamed candidate is a (query, cardinality) pair
        for item in candidates:
            assert item.cardinality >= 0
            assert item.query.num_vertices > 0

    def test_streamed_explain_equals_in_process_explain(self, client):
        """The headline differential: the final report of a *streamed*
        remote explain is bit-identical (modulo wall-clock) to an
        in-process ``service.explain()`` on an identical graph."""
        service = WhyQueryService()
        try:
            local = service.explain(small_graph(), failing_query())
            remote = client.explain_stream("g", failing_query()).result()
            assert strip_volatile(remote) == strip_volatile(report_to_dict(local))
        finally:
            service.close()

    def test_plain_and_streamed_remote_explains_agree(self, client):
        plain = client.explain("g", failing_query())
        streamed = client.explain_stream("g", failing_query()).result()
        assert strip_volatile(plain) == strip_volatile(streamed)

    def test_streams_in_flight_on_one_connection(self, server, ldbc_small):
        """Six streamed explains (two per query) are written before any
        reply is read, and threads switch every 10 us, so the workers'
        bursts interleave on the wire: each stream still arrives whole, in
        ``seq`` order, every candidate ahead of its own ``result``, the
        server counts every frame, and each report equals the in-process
        one."""
        graph = ldbc_small.graph
        requests = [
            too_many_request(graph, name)
            for name in ("LDBC QUERY 1", "LDBC QUERY 3", "LDBC QUERY 4") * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with connect(*server.address, timeout=60) as c:
                c.put_graph("ldbc", graph)
                before = c.stats()["server"]["streamed_candidates"]
                rids = [next(c._ids) for _ in requests]
                c._sock.sendall(
                    b"".join(
                        encode_frame(
                            _explain_request(rid, "ldbc", query, threshold, True, True, True)
                        )
                        for rid, (query, threshold) in zip(rids, requests)
                    )
                )
                finals = []
                for rid in rids:
                    frames = frames_until_final(c, rid)
                    candidates, final = frames[:-1], frames[-1]
                    assert final["type"] == "result"
                    assert [f["type"] for f in candidates] == ["candidate"] * len(candidates)
                    assert [f["seq"] for f in candidates] == list(range(len(candidates)))
                    assert final["streamed"] == len(candidates) > 0
                    finals.append(final)
                # a later round trip pumps whatever followed: nothing of any
                # stream may arrive after its result
                after = c.stats()["server"]["streamed_candidates"]
                assert not any(c._inbox.get(rid) for rid in rids)
                assert after - before == sum(f["streamed"] for f in finals)
        finally:
            sys.setswitchinterval(interval)
        service = WhyQueryService()
        try:
            for final, (query, threshold) in zip(finals, requests):
                local = report_to_dict(service.explain(graph, query, threshold))
                assert strip_volatile(final["report"]) == strip_volatile(local)
        finally:
            service.close()

    def test_trace_frame_follows_the_last_candidate(self, client):
        frames = frames_until_final(
            client, request_explain(client, "g", failing_query(), trace=True)
        )
        kinds = [f["type"] for f in frames]
        n = kinds.count("candidate")
        assert n > 0
        assert kinds == ["candidate"] * n + ["trace", "result"]
        assert frames[n]["trace"]["kind"] == "explain"

    def test_reader_that_waits_for_the_search_gets_every_frame(self, server):
        """Nothing is read until the server has finished the search (seen
        through a second connection's stats); every frame is still there."""
        with connect(*server.address, timeout=30) as c, connect(
            *server.address, timeout=30
        ) as watcher:
            c.put_graph("g", small_graph())
            before = watcher.stats()["server"]["streamed_candidates"]
            rid = request_explain(c, "g", failing_query())
            deadline = time.monotonic() + 30
            while watcher.stats()["server"]["streamed_candidates"] == before:
                assert time.monotonic() < deadline, "the explain never finished"
                time.sleep(0.01)
            streamed = watcher.stats()["server"]["streamed_candidates"] - before
            frames = frames_until_final(c, rid)
        assert [f["seq"] for f in frames[:-1]] == list(range(streamed))
        assert frames[-1]["type"] == "result"
        assert frames[-1]["streamed"] == streamed


class TestOversizeFrames:
    """A frame over ``MAX_FRAME_BYTES`` cannot be sent: the request answers
    ``error`` instead of leaving the client waiting (the socket timeout is
    the failure detector), and the connection keeps serving."""

    @pytest.mark.parametrize("stream", [False, True])
    def test_oversize_report_answers_error(self, server, monkeypatch, stream):
        import repro.server.protocol as protocol

        with connect(*server.address, timeout=10) as c:
            c.put_graph("g", small_graph())
            # the explain request is ~0.4 kB, every candidate frame under
            # 0.5 kB, the report ~3 kB
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1500)
            if stream:
                explain_stream = c.explain_stream("g", failing_query())
                with pytest.raises(ServerError, match="MAX_FRAME_BYTES"):
                    explain_stream.result()
                seqs = [item.seq for item in explain_stream.candidates]
                assert seqs and seqs == list(range(len(seqs)))
            else:
                with pytest.raises(ServerError, match="MAX_FRAME_BYTES"):
                    c.explain("g", failing_query())
            monkeypatch.undo()
            assert c.count("g", matching_query()) == 2

    def test_oversize_candidate_answers_error(self, server, monkeypatch):
        import repro.server.protocol as protocol

        with connect(*server.address, timeout=10) as c:
            c.put_graph("g", small_graph())
            rid = next(c._ids)
            # encoded under the real bound.  The request fails at its first
            # candidate frame: 156 bytes measured in-process, its error
            # reply 111 (a later candidate that only drops a vertex's
            # predicates is 99), so the bound sits between the two
            bound = 133
            assert len(first_candidate_frame(failing_query())) > bound
            request = encode_frame(
                _explain_request(rid, "g", failing_query(), None, True, True, True)
            )
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", bound)
            c._sock.sendall(request)
            explain_stream = ExplainStream(c, rid, failing_query())
            with pytest.raises(ServerError, match="MAX_FRAME_BYTES"):
                explain_stream.result()
            assert explain_stream.candidates == []
            monkeypatch.undo()
            assert c.count("g", matching_query()) == 2


class TestCancellation:
    def test_cancel_before_first_batch(self, client):
        """Explain and cancel coalesced into one TCP segment: the token
        is set before the search starts, so the first candidate batch
        raises through the engine stack and answers ``cancelled``."""
        rid = next(client._ids)
        request = _explain_request(
            rid, "g", failing_query(), None, True, True, True
        )
        client._sock.sendall(
            encode_frame(request) + encode_frame({"type": "cancel", "id": rid})
        )
        stream = ExplainStream(client, rid, failing_query())
        with pytest.raises(RequestCancelled):
            stream.result()

    def test_cancel_mid_stream(self):
        """Cancellation while the search is genuinely in flight: a gated
        result cache stalls the second candidate batch until the cancel
        frame has provably been processed (a same-connection round trip
        behind it), then the engine unwinds cooperatively."""
        release = threading.Event()
        counted = threading.Event()

        class GatedCache(QueryResultCache):
            def count(self, query, limit=None):
                if counted.is_set():
                    # block the search mid-flight until the test has
                    # sent the cancel frame
                    release.wait(timeout=30)
                counted.set()
                return super().count(query, limit=limit)

        def factory(graph):
            context = ExecutionContext(graph)
            context.cache = GatedCache(context.matcher)
            return context

        service = WhyQueryService(context_factory=factory)
        handle = serve_in_thread(service=service)
        try:
            with connect(*handle.address) as c:
                c.put_graph("g", small_graph())
                stream = c.explain_stream("g", failing_query())
                counted.wait(timeout=30)
                stream.cancel()
                # frames of one connection are dispatched in order and the
                # cancel flips its token synchronously in the read loop, so
                # the reply to a later frame proves the token is set
                c.stats()
                release.set()
                with pytest.raises(RequestCancelled):
                    stream.result()
        finally:
            handle.stop()

    def test_cancelled_request_does_not_poison_the_connection(self, client):
        rid = next(client._ids)
        request = _explain_request(
            rid, "g", failing_query(), None, True, True, True
        )
        client._sock.sendall(
            encode_frame(request) + encode_frame({"type": "cancel", "id": rid})
        )
        with pytest.raises(RequestCancelled):
            ExplainStream(client, rid, failing_query()).result()
        assert client.count("g", matching_query()) == 2


# -- quotas (the protocol-level 429) ---------------------------------------------


class TestQuotas:
    def test_tenant_quota_rejection_frame(self):
        """A tenant whose pool cannot grant a budget gets a ``rejected``
        frame (and the connection survives); an unmetered tenant on the
        same server is admitted."""
        # drain the tenant's pool up front: the next acquire cannot be
        # granted and there is no waiting queue -> immediate rejection
        pool = BudgetPool(total=8, min_grant=8, max_waiting=0)
        hog = pool.acquire(8)
        rejected_before = REGISTRY.counter("repro_explain_rejected_total").value
        handle = serve_in_thread(tenants={"starved": pool})
        try:
            with connect(*handle.address, tenant="starved") as starved:
                starved.put_graph("g", small_graph())
                with pytest.raises(RequestRejected) as info:
                    starved.explain("g", failing_query())
                assert info.value.code == 429
                # the lease is taken inside service.explain, so a tenant
                # rejection shows in the service's own metrics
                stats = starved.stats()
                assert stats["service"]["rejected_calls"] == 1
                assert (
                    stats["metrics"]["counters"]["repro_explain_rejected_total"]
                    == rejected_before + 1
                )
                hog.release()
                # the connection is still usable after the 429
                assert starved.count("g", matching_query()) == 2
            with connect(*handle.address, tenant="unmetered") as free:
                free.put_graph("g", small_graph())
                report = free.explain("g", failing_query())
                assert report["problem"] == "why-empty"
        finally:
            handle.stop()

    def test_tenant_quota_admits_within_budget(self):
        pool = BudgetPool(total=1200, min_grant=8, max_waiting=4)
        handle = serve_in_thread(tenants={"alice": pool})
        try:
            with connect(*handle.address, tenant="alice") as c:
                c.put_graph("g", small_graph())
                report = c.explain("g", failing_query())
                assert report["problem"] == "why-empty"
            stats = pool.stats()
            assert stats["admitted"] >= 1
        finally:
            handle.stop()

    def test_queued_tenants_cannot_starve_the_request_pool(self):
        """A tenant pool that admits one request at a time, two request
        workers, three explains in flight: the lease holder owns the
        worker it acquired on, so waiters can never occupy every worker
        while the holder's explain is still queued behind them.  The
        socket timeout is the failure detector."""
        pool = BudgetPool(total=8, min_grant=8, max_waiting=64)
        handle = serve_in_thread(tenants={"t": pool}, request_workers=2)
        try:
            with connect(*handle.address, tenant="t", timeout=30) as c:
                c.put_graph("g", small_graph())
                # one TCP segment, so all three are dispatched before any
                # of them can finish
                rids = [next(c._ids) for _ in range(3)]
                c._sock.sendall(
                    b"".join(
                        encode_frame(
                            _explain_request(
                                rid, "g", failing_query(), None, True, True, True
                            )
                        )
                        for rid in rids
                    )
                )
                reports = [
                    ExplainStream(c, rid, failing_query()).result() for rid in rids
                ]
            assert [r["problem"] for r in reports] == ["why-empty"] * 3
            stats = pool.stats()
            assert stats["in_use"] == 0
            assert stats["admitted"] == 3
        finally:
            handle.stop()

    def test_admission_span_covers_the_tenant_wait(self):
        """A traced request queued on its tenant's pool spends the wait
        inside its ``admission`` span."""
        pool = BudgetPool(total=8, min_grant=8, max_waiting=4)
        hog = pool.acquire(8)
        handle = serve_in_thread(tenants={"t": pool})
        try:
            with connect(*handle.address, tenant="t", timeout=30) as c:
                c.put_graph("g", small_graph())
                stream = c.explain_stream("g", failing_query(), trace=True)
                for _ in range(10_000):  # paced by a round trip, not a sleep
                    if pool.stats()["waiting_requests"]:
                        break
                    c.stats()
                assert pool.stats()["waiting_requests"] == 1
                waiting_since = time.perf_counter()
                c.stats()  # one more round trip spent in the queue
                waited = time.perf_counter() - waiting_since
                hog.release()
                trace = stream.result()["trace"]
            assert trace["kind"] == "explain"
            admission = [s for s in trace["spans"] if s["kind"] == "admission"]
            assert len(admission) == 1
            assert admission[0]["elapsed_s"] >= waited
        finally:
            handle.stop()


# -- drain on close --------------------------------------------------------------


class TestDrain:
    def test_goodbye_waits_for_in_flight_requests(self):
        """A client that says goodbye with an explain still in flight
        gets the result frame *and then* the goodbye: the server drains
        before closing (no work is silently dropped)."""
        handle = serve_in_thread()
        try:
            c = connect(*handle.address)
            c.put_graph("g", small_graph())
            rid = next(c._ids)
            c._send(_explain_request(rid, "g", failing_query(), None, True, True, False))
            # goodbye immediately, without reading the explain's reply
            c._send({"type": "goodbye"})
            while True:
                try:
                    c._pump()
                except ConnectionError:
                    break
                drained = False
                for frame in c._general:
                    if frame.get("type") == "goodbye":
                        drained = True
                if drained:
                    break
            result = c._next_frame(rid) if c._inbox.get(rid) else None
            assert result is not None, "drain must flush the in-flight result"
            assert result["type"] == "result"
            assert result["report"]["problem"] == "why-empty"
            c._sock.close()
        finally:
            handle.stop()

    def test_server_stop_drains_connections(self):
        handle = serve_in_thread()
        c = connect(*handle.address)
        c.put_graph("g", small_graph())
        assert c.count("g", matching_query()) == 2
        c.close()
        handle.stop()  # must not hang or raise

    def test_protocol_error_closes_connection(self, server):
        sock = socket.create_connection(server.address)
        try:
            import struct

            sock.sendall(struct.pack(">I", 2**31))  # absurd length prefix
            decoder = FrameDecoder()
            frames = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                frames.extend(decoder.feed(data))
            assert any(f.get("code") == "protocol" for f in frames)
        finally:
            sock.close()


class TestShutdownMessage:
    def test_shutdown_forbidden_by_default(self, server):
        with connect(*server.address) as c:
            with pytest.raises(ServerError):
                c.shutdown_server()

    def test_shutdown_honoured_when_enabled(self):
        handle = serve_in_thread(allow_shutdown=True)
        with connect(*handle.address) as c:
            ack = c.shutdown_server()
            assert ack["type"] == "ok"
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()

    def test_shutdown_with_a_connection_open_logs_no_traceback(self):
        """A second client still connected when the server stops: close()
        ends its handler, so no task is cancelled under the loop's
        exception handler at exit."""
        records: list = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("asyncio")
        logger.addHandler(handler)
        try:
            handle = serve_in_thread(allow_shutdown=True)
            lingering = connect(*handle.address)  # handshaken: its handler runs
            try:
                with connect(*handle.address) as c:
                    assert c.shutdown_server()["type"] == "ok"
                handle._thread.join(timeout=30)
                assert not handle._thread.is_alive()
            finally:
                lingering.close()
        finally:
            logger.removeHandler(handler)
        assert not [r for r in records if "Exception in callback" in r.getMessage()], [
            r.getMessage() for r in records
        ]
