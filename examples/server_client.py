"""The network front door: server + client over the wire protocol.

Boots a ``WhyQueryProtocolServer`` on a background thread, connects a
``WhyQueryClient``, uploads a graph and debugs a failing query three
ways: a plain remote ``explain``, a *streamed* explain (rewrite
candidates arrive while the search runs, each as its difference from the
query the request sent; decoded here they equal, in order, the
candidates an in-process explain finds, and the final report is
bit-identical to the plain one), and a quota'd tenant whose admission
rejection surfaces as a protocol-level 429 instead of a stack trace.

Run:  python examples/server_client.py
Or against an already-running server (``python -m repro serve``):
      python examples/server_client.py --connect HOST:PORT
"""

import sys

from repro import (
    BudgetPool,
    GraphQuery,
    PropertyGraph,
    WhyQueryService,
    connect,
    equals,
    serve_in_thread,
)
from repro.client import RequestRejected
from repro.server.protocol import strip_volatile

# -- 1. a small social network and an over-constrained query -----------------

graph = PropertyGraph()
anna = graph.add_vertex(type="person", name="Anna")
bob = graph.add_vertex(type="person", name="Bob")
uni = graph.add_vertex(type="university", name="TU Dresden")
city = graph.add_vertex(type="city", name="Dresden")
graph.add_edge(anna, uni, "workAt")
graph.add_edge(bob, uni, "studyAt")
graph.add_edge(uni, city, "locatedIn")

query = GraphQuery()
person = query.add_vertex(predicates={"type": equals("person")})
university = query.add_vertex(predicates={"type": equals("university")})
query.add_edge(person, university, types={"foundedBy"})  # nobody founded it

# -- 2. a server (in-process here; `python -m repro serve` for real) ---------

if len(sys.argv) > 2 and sys.argv[1] == "--connect":
    host, _, port = sys.argv[2].partition(":")
    handle = None
    address = (host, int(port))
else:
    # a starved tenant quota, to show the 429 path
    handle = serve_in_thread(
        tenants={"starved": BudgetPool(total=8, min_grant=8, max_waiting=0)}
    )
    address = handle.address

# -- 3. plain and streamed remote explains -----------------------------------

with connect(*address) as client:
    client.put_graph("social", graph)
    print(f"connected to {address[0]}:{address[1]}, uploaded {graph}")

    report = client.explain("social", query)
    print(f"\nplain explain: {report['summary']}")

    stream = client.explain_stream("social", query)
    print("\nstreamed explain (candidates as the search finds them):")
    for candidate in stream:
        print(f"  candidate #{candidate.seq}: cardinality {candidate.cardinality}")
    streamed_report = stream.result()
    identical = strip_volatile(streamed_report) == strip_volatile(report)
    print(f"streamed final report identical to plain explain: {identical}")
    assert identical

    # the candidates the search finds in this process, in order
    with WhyQueryService() as service:
        local = []
        service.explain(graph, query, on_candidate=local.append)
    same = [(c.query.signature(), c.cardinality) for c in stream.candidates] == [
        (c.query.signature(), c.cardinality) for c in local
    ]
    print(f"streamed candidates equal the in-process ones, in order: {same}")
    assert same

    stats = client.stats()
    print(
        f"\nserver stats: {stats['server']['requests']} requests, "
        f"{stats['service']['contexts_live']} warm context(s), "
        f"schema {stats['schema']}"
    )

# -- 4. the quota story: a starved tenant gets a protocol-level 429 ----------

if handle is not None:
    hog = handle.server.tenants["starved"].acquire(8)  # drain the quota
    with connect(*address, tenant="starved") as starved:
        try:
            starved.explain("social", query)
        except RequestRejected as rejected:
            print(f"\nstarved tenant was rejected, not crashed: {rejected}")
    hog.release()
    handle.stop()
    print("server drained and stopped")

# The protocol multiplexes many requests over one connection, streams
# rewrite candidates without changing the final answer, and turns
# admission pressure into a client-visible 429 -- see docs/protocol.md.
