"""Async serving with admission control: a why-query burst in asyncio.

A deployment-shaped tour of the service layer: one ``WhyQueryService``
with a ``BudgetPool`` (every request leases its evaluation budget from a
bounded global pool, so a traffic burst degrades to smaller searches and
queued admissions instead of unbounded work).  ``explain`` is a blocking,
CPU-bound call, so the asyncio program runs each request on a thread
with ``asyncio.to_thread`` and bounds the number in flight with its own
semaphore.  A burst of concurrent requests over two hot graphs is driven
through ``asyncio.gather``, and the service's stats show what happened.

Run:  python examples/async_service.py
"""

import asyncio

from repro import (
    BudgetPool,
    GraphQuery,
    PropertyGraph,
    WhyQueryService,
    equals,
)

# -- 1. two hot graphs (two tenants of the same service) ---------------------


def social_graph(city: str) -> PropertyGraph:
    g = PropertyGraph()
    anna = g.add_vertex(type="person", name="Anna")
    bob = g.add_vertex(type="person", name="Bob")
    uni = g.add_vertex(type="university", name=f"U {city}")
    town = g.add_vertex(type="city", name=city)
    g.add_edge(anna, uni, "workAt")
    g.add_edge(bob, uni, "studyAt")
    g.add_edge(uni, town, "locatedIn")
    return g


graphs = [social_graph("Dresden"), social_graph("Berlin")]

# an over-constrained query: nobody *founded* a university here
query = GraphQuery()
person = query.add_vertex(predicates={"type": equals("person")})
university = query.add_vertex(predicates={"type": equals("university")})
query.add_edge(person, university, types={"foundedBy"})

# -- 2. the service: bounded budget pool, requests hopped onto threads -------

# the pool admits ~8 full requests' worth of evaluations at a time; a
# heavier burst queues (up to 64 waiters) instead of being rejected
pool = BudgetPool(total=8 * 300, min_grant=8, max_waiting=64, wait_timeout=30.0)

BURST = 24
MAX_IN_FLIGHT = 16


async def main() -> None:
    in_flight = asyncio.Semaphore(MAX_IN_FLIGHT)

    with WhyQueryService(budget_pool=pool) as service:

        async def explain(graph):
            async with in_flight:
                return await asyncio.to_thread(
                    service.explain, graph, query, explain=False
                )

        # -- 3. a burst of concurrent requests over both graphs --------------
        reports = await asyncio.gather(
            *(explain(graphs[i % 2]) for i in range(BURST))
        )

        first = reports[0]
        print(f"{BURST} concurrent requests debugged")
        print(f"problem: {first.problem.value}")
        best = first.rewriting.best
        print(f"best fix: {best.describe()}")
        print()

        stats = service.stats()
        admission = stats["admission"]
        print("service stats:")
        print(f"  explain calls:     {stats['service']['explain_calls']}")
        print(f"  warm contexts:     {stats['service']['contexts_live']}")
        print(f"  result-cache hits: {stats['caches']['results']['hits']}")
        print("admission control:")
        print(f"  admitted:          {admission['admitted']}")
        print(f"  queued waits:      {admission['queued_waits']}")
        print(f"  rejected:          {admission['rejected']}")
        print(f"  peak budget use:   {admission['peak_in_use']}/{pool.total}")
        print(
            f"  evaluations spent: {admission['evaluations_spent']} "
            f"of {admission['evaluations_granted']} granted"
        )


asyncio.run(main())

# Every request leased its budget from the pool and returned it; the
# burst never exceeded the global evaluation bound, and requests over the
# same graph shared one warm context (visible in the result-cache hits).
