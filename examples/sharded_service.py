"""Sharded storage + process-parallel serving: escaping the GIL.

A deployment-shaped tour of the ``repro.shard`` layer:

1. partition a graph into vertex-range shards and inspect the balance
   and the boundary-edge index;
2. fan a single heavy count out per shard with deterministic merge;
3. serve why-queries through a ``WhyQueryService(executor="process")``
   -- every pooled graph gets its own pool of warm worker processes,
   each holding a long-lived ``ExecutionContext`` rebuilt from a
   snapshot, so the rewriting search's pure-CPU candidate evaluation
   runs outside the coordinator's GIL;
4. serve the same request with ``shards=4``: the shard count alone
   makes the pool shard-affine -- each worker holds only its shards.

Everything runs under ``if __name__ == "__main__"``: worker processes
are started with a spawning method (forkserver/spawn), which re-imports
the main module -- module-level process creation would recurse.  Worker
counts are kept at 2 so the example is stable on small CI runners; real
deployments size the pool to the machine.

Run:  python examples/sharded_service.py
"""

from repro import (
    GraphPartitioner,
    GraphQuery,
    PatternMatcher,
    PropertyGraph,
    ShardedMatcher,
    WhyQueryService,
    equals,
)


def build_graph(hubs: int = 40, fanout: int = 12) -> PropertyGraph:
    g = PropertyGraph()
    hub_ids = []
    n = 0
    for _ in range(hubs):
        hub = g.add_vertex(type="hub")
        hub_ids.append(hub)
        for _ in range(fanout):
            leaf = g.add_vertex(type="leaf", name=f"n{n % 8}")
            g.add_edge(hub, leaf, "rel")
            n += 1
    # a ring over the hubs: these edges cross vertex ranges, so the
    # partitioner files them in the boundary-edge index
    for a, b in zip(hub_ids, hub_ids[1:] + hub_ids[:1]):
        g.add_edge(a, b, "linksTo")
    return g


def hub_leaf_query(edge_type: str) -> GraphQuery:
    q = GraphQuery()
    hub_v = q.add_vertex(predicates={"type": equals("hub")})
    leaf_v = q.add_vertex(predicates={"type": equals("leaf")})
    q.add_edge(hub_v, leaf_v, types={edge_type})
    return q


def main() -> None:
    # -- 1. partition into 4 vertex-range shards -----------------------------
    graph = build_graph()
    sharded = GraphPartitioner(4).partition(graph)
    stats = sharded.partition_stats()
    print("partitioned:", sharded)
    print(f"  vertices per shard: {stats['vertices_per_shard']}")
    print(f"  edges per shard:    {stats['edges_per_shard']}")
    print(f"  boundary edges:     {stats['boundary_edges']} "
          f"({stats['boundary_fraction']:.1%} of all edges)")

    # -- 2. one heavy count, fanned out per shard and merged ------------------
    query = hub_leaf_query("rel")
    matcher = ShardedMatcher(sharded)
    per_shard = [
        matcher.count_shard(i, query) for i in range(sharded.num_shards)
    ]
    merged = matcher.count(query)
    print(f"\nper-shard counts {per_shard} -> merged {merged}")
    assert merged == sum(per_shard) == PatternMatcher(graph).count(query)

    # -- 3. the service in process mode ---------------------------------------
    # an over-constrained query: no hub->leaf edge carries this type
    failing = hub_leaf_query("relMissing")
    with WhyQueryService(
        executor="process", process_workers=2, shards=1
    ) as service:
        report = service.explain(graph, failing)
        print(f"\nproblem: {report.problem.value}")
        print(f"best fix: {report.rewriting.best.describe()}")

        stats = service.stats()
        pools = stats["pools"]
        snapshot_bytes = stats["per_graph"][0]["process_pool"]["pools"][
            "payload_bytes_max"
        ]
        print("\nprocess pools:")
        print(f"  pools live:        {pools['pools_live']}")
        print(f"  worker processes:  {pools['workers']}")
        print(f"  shards per pool:   {pools['shards_per_pool']} "
              f"({pools['placement']} snapshot per worker)")
        print(f"  candidate batches: {pools['batches']}")
        print(f"  queries shipped:   {pools['queries_shipped']}")

    # The rewriting search's candidate batches crossed the process
    # boundary as compact wire forms and were evaluated by warm worker
    # contexts; the trajectory (and therefore the explanation) is
    # identical to the serial service's -- only the CPU it burned was
    # someone else's core.

    # -- 4. shards > 1: workers hold only their shards ------------------------
    with WhyQueryService(
        executor="process", process_workers=4, shards=4
    ) as service:
        report = service.explain(graph, failing)
        assert report.rewriting.best is not None
        stats = service.stats()
        pool_info = stats["per_graph"][0]["process_pool"]["pools"]
        print(f"\n{pool_info['placement']} placement:")
        print(f"  placement map:         {pool_info['placement_map']}")
        print(f"  largest worker payload: {pool_info['payload_bytes_max']} bytes "
              f"(the full snapshot every shards=1 worker got: "
              f"{snapshot_bytes} bytes, "
              f"{snapshot_bytes / pool_info['payload_bytes_max']:.1f}x more)")
        print(f"  coordinator fallbacks: {pool_info['affine_fallbacks']}")

    # With shards > 1 each worker process was warmed from only
    # its shards' wire payloads (vertex range + incident edges + the
    # boundary halo), so worker memory scales down with the shard count;
    # blocks a slice cannot finish fall back to the coordinator, counted
    # above.


if __name__ == "__main__":
    main()
